type 'm t = 'm Engine.strategy

let silent corrupted =
  Engine.{ corrupted; act = (fun _ ~round:_ ~inbox:_ -> []) }

(* Run the honest automaton inside the strategy.  State lives in a table
   keyed by node; [init] fires on the node's first activation (round 0). *)
let mimic_states automaton =
  let states = Hashtbl.create 8 in
  fun v ~round ~inbox ->
    match Hashtbl.find_opt states v with
    | None ->
      let st, sends = automaton.Engine.init v in
      (* round-0 call corresponds to init; later first calls replay init
         then immediately step (the node was silent before) *)
      if round = 0 then begin
        Hashtbl.replace states v st;
        sends
      end
      else begin
        let st', sends' = automaton.Engine.step v st ~round ~inbox in
        Hashtbl.replace states v st';
        sends @ sends'
      end
    | Some _ when round = 0 ->
      (* round 0 with state already present means a second Engine.run is
         reusing this strategy; the stale state would silently replay *)
      invalid_arg
        "Byzantine.mimic_honest: strategy reused across runs (build a \
         fresh strategy per Engine.run)"
    | Some st ->
      let st', sends = automaton.Engine.step v st ~round ~inbox in
      Hashtbl.replace states v st';
      sends

let mimic_honest corrupted automaton =
  Engine.{ corrupted; act = mimic_states automaton }
