let is_isolated ~is_malicious view =
  not (Array.exists (fun id -> not (is_malicious id)) view)
