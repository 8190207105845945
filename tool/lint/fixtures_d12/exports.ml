let used_by_program x = x + 1
let used_via_alias x = x + 2
let used_by_test x = x + 3
let used_by_self x = x + 4
let kept x = used_by_self x
let stale x = x + 5
