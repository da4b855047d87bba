type verdict = Accept | Reject_constraint | Needs_challenge

let challenge_token ~secret ~id ~target =
  Sha256.hmac ~key:secret
    (Id.to_raw_string id ^ ":" ^ string_of_int target)

let verify_token ~secret ~id ~target token =
  String.equal token (challenge_token ~secret ~id ~target)

let vet ~check_constraints ~challenge_hosts ~secret ~token trigger =
  match trigger.Trigger.stack with
  | Packet.Sid target :: _ ->
      if
        (not check_constraints)
        || Id_constraints.check ~trigger_id:trigger.Trigger.id ~target
      then Accept
      else Reject_constraint
  | Packet.Saddr target :: _ ->
      if not challenge_hosts then Accept
      else begin
        match token with
        | Some tok
          when verify_token ~secret ~id:trigger.Trigger.id ~target tok ->
            Accept
        | Some _ | None -> Needs_challenge
      end
  | [] -> Reject_constraint
