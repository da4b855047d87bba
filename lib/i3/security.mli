(** Server-side defenses from Sec. IV-J.

    - {b Trigger constraints}: an id-to-id trigger [(x, y)] is accepted only
      if [x.key = h_l(y.key)] or [y.key = h_r(x.key)] (see
      {!Id_constraints}), defeating eavesdropping/impersonation triggers and
      forged loops/confluences.
    - {b Trigger challenges}: a trigger pointing at an end-host address is
      accepted only together with a token that the server previously sent
      {e to that address} — proving the address asked for the traffic, which
      kills reflection attacks.  Tokens are stateless HMACs over
      (trigger id, target address), so servers remember nothing.
    - {b Pushback} is implemented in {!Server} using
      {!Trigger_table.remove_matching}. *)

type verdict =
  | Accept
  | Reject_constraint  (** id-to-id trigger violating both constraints *)
  | Needs_challenge  (** host-target trigger without a valid token *)

val challenge_token : secret:string -> id:Id.t -> target:Packet.addr -> string
(** The stateless token a server issues (and later expects) for a
    host-target trigger insertion. *)

val verify_token :
  secret:string -> id:Id.t -> target:Packet.addr -> string -> bool

val vet :
  check_constraints:bool ->
  challenge_hosts:bool ->
  secret:string ->
  token:string option ->
  Trigger.t ->
  verdict
(** Full admission decision for a trigger insertion. *)
