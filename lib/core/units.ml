type t = Bytes | Packets | Syscalls | Hinted

let all = [ Bytes; Packets; Syscalls; Hinted ]

let to_string = function
  | Bytes -> "bytes"
  | Packets -> "packets"
  | Syscalls -> "syscalls"
  | Hinted -> "hinted"

let of_string = function
  | "bytes" -> Ok Bytes
  | "packets" -> Ok Packets
  | "syscalls" -> Ok Syscalls
  | "hinted" -> Ok Hinted
  | s -> Error (Printf.sprintf "unknown unit %S (expected bytes|packets|syscalls|hinted)" s)

let equal a b = a = b
