let should_send ~enabled ~min_send ~mss ~chunk ~in_flight =
  if chunk <= 0 then false
  else if not enabled then true
  else if chunk >= mss then true
  else if in_flight = 0 then true
  else min_send >= 0 && chunk >= Stdlib.min min_send mss
