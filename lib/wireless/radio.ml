(* 802.11 DSSS constants; PLCP long preamble is 192 us at 1 Mbit/s. *)
let bitrate = 2e6
let range = 250.0
let cs_range = 550.0
let slot = 20e-6
let sifs = 10e-6
let difs = 50e-6
let cw_min = 31
let cw_max = 1023
let retry_limit = 7
let queue_limit = 50
let phy_overhead = 192e-6
let mac_header = 28
let ack_size = 14
let rts_size = 20
let cts_size = 14
let rts_threshold = 128

let airtime bytes = phy_overhead +. (float_of_int (bytes * 8) /. bitrate)
let tx_duration ~size = airtime (size + mac_header)
let ack_duration = airtime ack_size
let rts_duration = airtime rts_size
let cts_duration = airtime cts_size
