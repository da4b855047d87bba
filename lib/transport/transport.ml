module Udp = Udp
module Faulty = Faulty
module Host = Host
module Client = Client
module Driver = Driver
module Dynamic = Dynamic
module Deployment = Deployment
module Sim = Sim_endpoint
