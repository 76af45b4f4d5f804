(* RFC 5961 blind-attack mitigations, as pure decision functions over
   Seq32 serial arithmetic.  The socket converts its full-width stream
   positions with [Seq32.of_int] before calling in; because both sides
   truncate consistently, every decision here is invariant under a
   uniform 2^32 shift of all sequence inputs (pinned by a QCheck
   property in the test suite). *)

type verdict = Accept | Challenge | Discard

(* RFC 5961 §3.2: a RST is honoured only when its sequence number is
   exactly RCV.NXT; anywhere else inside the receive window it earns a
   challenge ACK (forcing a genuine peer to re-send an exact RST), and
   outside the window it is dropped silently. *)
let check_rst ~rcv_nxt ~rcv_wnd ~seq =
  if rcv_wnd < 0 then invalid_arg "Rfc5961.check_rst: negative window";
  if Seq32.sub seq rcv_nxt = 0 then Accept
  else if Seq32.between seq ~low:rcv_nxt ~high:(Seq32.add rcv_nxt rcv_wnd) then
    Challenge
  else Discard

(* RFC 5961 §4.2: any SYN received while synchronized elicits a
   challenge ACK, never a reset — a legitimate peer restarting will
   respond with a RST bearing the exact sequence number from the
   challenge, which §3 then accepts. *)
let check_syn () = Challenge

(* RFC 5961 §5.2: SEG.ACK is acceptable iff
   SND.UNA - MAX.SND.WND <= SEG.ACK <= SND.NXT (serial arithmetic).
   Expressed as forward distances from the window's lower edge so the
   comparison survives wraparound. *)
let ack_acceptable ~snd_una ~snd_nxt ~max_wnd ~ack =
  if max_wnd < 0 then invalid_arg "Rfc5961.ack_acceptable: negative window";
  let low = Seq32.add snd_una (-max_wnd) in
  Seq32.sub ack low <= Seq32.sub snd_nxt low
