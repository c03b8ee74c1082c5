open Rmt_base
open Rmt_graph

type 'p msg = {
  payload : 'p;
  trail : Paths.path;
}

let rec mem_int (v : int) = function
  | [] -> false
  | u :: rest -> u = v || mem_int v rest

(* One allocation-free pass over the (short) trail: no node is [self] or
   repeats, and the last one is [src]. *)
let rec trail_ok ~(self : int) ~src = function
  | [] -> false
  | [ v ] -> v <> self && v = src
  | v :: rest -> v <> self && (not (mem_int v rest)) && trail_ok ~self ~src rest

let broadcast g v m =
  Nodeset.fold
    (fun u acc -> Engine.{ dst = u; payload = m } :: acc)
    (Graph.neighbors v g)
    []

let originate g v a = broadcast g v { payload = a; trail = [ v ] }

let relay g self ~inbox =
  List.concat_map
    (fun (src, m) ->
      if trail_ok ~self ~src m.trail then
        broadcast g self { m with trail = m.trail @ [ self ] }
      else [])
    inbox
