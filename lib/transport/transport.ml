module Udp = Udp
module Faulty = Faulty
module Client = Client
module Driver = Driver
module Dynamic = Dynamic
module Deployment = Deployment

module type S = sig
  type t

  val send : t -> dst:int -> string -> unit
  val set_handler : t -> (src:int -> string -> unit) -> unit
  val local_addr : t -> int
  val poll : t -> now:float -> unit
end

module Sim = Sim_endpoint

(* Seal the implementations against the signature so drift in any is a
   compile error. *)
module _ : S = Sim
module _ : S = Udp
module _ : S = Faulty
