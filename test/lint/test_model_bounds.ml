(* Send bounds of the protocol model on call cycles, shadowed
   bindings, nested helpers and closures.

   fixtures/r10_bounds.ml holds one function per shape; this test reads
   the fixture library's .cmt files, assembles the model and checks
   each function's bound in the helper table (module-level functions
   whose bound is not zero) and the automaton's step bound. *)

open Rmt_lint

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let model =
  match Cmt_loader.scan ~build_dir:"../.." ~dirs:[ "test/lint/fixtures" ] with
  | Error e -> fail "fixture scan failed: %s" e
  | Ok units ->
    Model.assemble
      (List.map
         (fun (u : Cmt_loader.unit_info) ->
           Model.extract ~source:u.Cmt_loader.source u.Cmt_loader.structure)
         units)

let helper name =
  List.find_opt
    (fun (h : Model.helper) -> String.equal h.Model.h_name name)
    model.Model.helpers

let expect_unbounded name =
  match helper name with
  | Some h when h.Model.h_bound.Model.b_unbounded -> ()
  | Some h ->
    fail "%s: expected unbounded, got %s" name
      (Model.bound_to_string h.Model.h_bound)
  | None -> fail "%s: expected unbounded, got no send helper" name

let expect_free name =
  match helper name with
  | None -> ()
  | Some h ->
    fail "%s: expected no sends, got %s" name
      (Model.bound_to_string h.Model.h_bound)

let constant k =
  Model.
    {
      b_const = k;
      b_deg = 0;
      b_nodes = 0;
      b_inbox = 0;
      b_inbox_deg = 0;
      b_unbounded = false;
    }

let () =
  (* send-free recursion; closures (literals or partial applications)
     built or stored but never run *)
  List.iter expect_free
    [ "R10_bounds.count_down"; "R10_bounds.wrap"; "R10_bounds.table";
      "R10_bounds.row"; "R10_bounds.partial" ];
  List.iter expect_unbounded
    [ "R10_bounds.spam"; "R10_bounds.ping"; "R10_bounds.pong";
      "R10_bounds.kick"; "R10_bounds.runs"; "R10_bounds.eager" ];
  (* the shadowing [quiet] and [f], and [g], which calls the second [f] *)
  List.iter
    (fun name ->
      match helper name with
      | Some h when h.Model.h_bound = constant 1 -> ()
      | Some h ->
        fail "%s: expected 1, got %s" name
          (Model.bound_to_string h.Model.h_bound)
      | None -> fail "%s: expected 1, got no send helper" name)
    [ "R10_bounds.quiet"; "R10_bounds.f"; "R10_bounds.g";
      "R10_bounds.nested" ];
  (match Model.find model "R10_bounds.automaton" with
   | None -> fail "R10_bounds.automaton: no automaton extracted"
   | Some p ->
     let init = Model.bound_to_string p.Model.p_init
     and step = Model.bound_to_string p.Model.p_step in
     if
       p.Model.p_init <> constant 0
       || p.Model.p_step <> constant 2
       || init <> "0" || step <> "2"
     then
       fail "R10_bounds.automaton: expected init 0, step 2; got %s, %s"
         init step);
  print_endline
    "model bounds: cycles, shadowing, nested helpers and closures classified"
