module Obs = Basalt_obs.Obs

let send obs ~proto (send : Basalt_proto.Rps.send) : Basalt_proto.Rps.send =
  if not (Obs.enabled obs) then send
  else begin
    let msgs = Obs.counter obs (proto ^ ".msgs_sent") in
    let bytes = Obs.counter obs (proto ^ ".bytes_sent") in
    let sizes = Obs.sketch obs (proto ^ ".msg_bytes") in
    let largest = Obs.gauge obs (proto ^ ".max_msg_bytes") in
    fun ~dst msg ->
      let sz = Wire.encoded_size msg in
      Obs.Counter.incr msgs;
      Obs.Counter.add bytes sz;
      Obs.Sketch.add sizes (float_of_int sz);
      Obs.Gauge.set_max largest (float_of_int sz);
      send ~dst msg
  end
