(* Bench regression gate.

   Compares a freshly generated BENCH_<section>.json against the
   committed baseline and fails when a gated row got slower than its
   limit allows.

   Usage: check_regression.exe BASELINE CANDIDATE

   Which rows are gated, and how tightly, is the [limits] table below and
   nothing else: a row is gated when its name starts with one of the
   prefixes, and it regresses when candidate/baseline ns_per_run exceeds
   that prefix's limit.  Baseline rows whose committed OLS fit is poor
   (r² < 0.5) are SKIPPED: a ratio of two noise floors gates nothing and
   flaps CI.  Rows without an "r2" field (the single-shot wall-clock rows
   of the lint and net sections) are always compared.

   Input is the record bench/main.exe --json writes, one flat row object
   per line:

     {
       "schema": "rmt-bench/2",
       "section": "core",
       "domains_available": 1,
       "rows": [
         {"name": "rmt/join/list/16", "ns_per_run": 116115.3, "r2": 0.9981},
         ...
       ]
     }

   The gate fails closed on its input: every line must parse (a row as a
   flat object of string, number and boolean fields with a string
   "name"), row names must be unique, the schema must be rmt-bench/2, both
   files must hold the same section, and a gated row must carry a
   positive ns_per_run.  Anything else exits 2 naming the file and line.
   No JSON library: the records are self-printed, so a line scanner is
   exact.

   Exit codes: 0 ok, 1 regression found, 2 usage or parse error. *)

let schema = "rmt-bench/2"

(* Fail above candidate/baseline = limit.  The join/reduce kernels are
   bechamel-sampled and stable, so they are gated tightly; the hash-cons
   rows are sub-microsecond; the rest are protocol runs
   or single-shot wall-clock timings exposed to shared-host drift.  Of
   the cut deciders only the thr-2 RMT-cut row is gated: local 𝒵_B
   membership made it ~20× faster than building ⊕ joins, so a 3× limit
   catches that regressing while staying clear of host drift. *)
let limits =
  [
    ("rmt/join/", 1.25); ("rmt/reduce/", 1.25);
    ("rmt/hc/", 2.0); ("rmt/cut/rmt-thr2", 3.0);
    ("rmt/lint/", 3.0); ("rmt/sim/", 3.0); ("rmt/net/", 3.0);
    ("rmt/cert/", 3.0);
  ]

let limit_of name =
  List.find_map
    (fun (p, l) -> if String.starts_with ~prefix:p name then Some l else None)
    limits

let min_r2 = 0.5

type scalar = Str of string | Num of float | Bool of bool

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* One flat JSON object on one line: {"key": scalar, ...}, scalars being
   escape-free strings, finite numbers, true or false. *)
let parse_object s =
  let n = String.length s and pos = ref 0 in
  let skip_ws () = while !pos < n && s.[!pos] = ' ' do incr pos done in
  let eat c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else bad "expected '%c' at column %d" c (!pos + 1)
  in
  let span ok =
    let start = !pos in
    while !pos < n && ok s.[!pos] do incr pos done;
    String.sub s start (!pos - start)
  in
  let string () =
    eat '"';
    let v = span (fun c -> c <> '"' && c <> '\\') in
    if !pos >= n || s.[!pos] <> '"' then
      bad "unterminated or escaped string at column %d" (!pos + 1);
    incr pos;
    v
  in
  let scalar () =
    skip_ws ();
    if !pos < n && s.[!pos] = '"' then Str (string ())
    else
      match span (fun c -> c <> ',' && c <> '}' && c <> ' ') with
      | "true" -> Bool true
      | "false" -> Bool false
      | tok -> (
        let numeric =
          tok <> ""
          && String.for_all (fun c -> String.contains "+-.0123456789eE" c) tok
        in
        match float_of_string_opt tok with
        | Some x when numeric && Float.is_finite x -> Num x
        | _ -> bad "bad value %S" tok)
  in
  let rec fields acc =
    let k = string () in
    eat ':';
    let v = scalar () in
    if List.mem_assoc k acc then bad "duplicate field %S" k;
    let acc = (k, v) :: acc in
    skip_ws ();
    if !pos < n && s.[!pos] = ',' then (incr pos; fields acc)
    else (eat '}'; List.rev acc)
  in
  eat '{';
  let fs = fields [] in
  skip_ws ();
  if !pos <> n then bad "trailing text at column %d" (!pos + 1);
  fs

type gated = { name : string; limit : float; ns : float; r2 : float option }

(* a row's name, and the row itself when its name is gated *)
let row_of fields =
  let num k =
    match List.assoc_opt k fields with
    | None -> None
    | Some (Num x) -> Some x
    | Some _ -> bad "field %S is not a number" k
  in
  let name =
    match List.assoc_opt "name" fields with
    | Some (Str s) when s <> "" -> s
    | _ -> bad "row without a string \"name\""
  in
  match (limit_of name, num "ns_per_run") with
  | None, _ -> (name, None)
  | Some limit, Some ns when ns > 0. ->
    (name, Some { name; limit; ns; r2 = num "r2" })
  | Some _, _ -> bad "gated row %S without a positive ns_per_run" name

(* (section, gated rows) of a record; exits 2 on the first line that
   does not fit the format *)
let read_record path =
  let lines =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "cannot open %s: %s\n" path e;
      exit 2
  in
  let lines =
    Array.of_list (List.map String.trim (String.split_on_char '\n' lines))
  in
  let fail i msg =
    Printf.eprintf "%s:%d: %s\n" path (i + 1) msg;
    exit 2
  in
  let strip_comma l =
    if String.ends_with ~suffix:"," l then String.sub l 0 (String.length l - 1)
    else l
  in
  let parse i l = try parse_object l with Bad m -> fail i m in
  let n = Array.length lines in
  if n = 0 || lines.(0) <> "{" then fail 0 "expected '{'";
  (* header: "key": scalar lines up to the rows array *)
  let rec header i acc =
    if i >= n then fail i "no \"rows\" array"
    else if lines.(i) = "\"rows\": [" then (acc, i + 1)
    else header (i + 1) (parse i ("{" ^ strip_comma lines.(i) ^ "}") @ acc)
  in
  let head, first_row = header 1 [] in
  if List.assoc_opt "schema" head <> Some (Str schema) then
    fail 0 (Printf.sprintf "schema is not %S" schema);
  let section =
    match List.assoc_opt "section" head with
    | Some (Str s) -> s
    | _ -> fail 0 "no string \"section\" in the header"
  in
  let rec rows i names gated =
    if i >= n then fail i "unterminated \"rows\" array"
    else if lines.(i) = "]" then (names, List.rev gated, i + 1)
    else
      let name, g =
        try row_of (parse i (strip_comma lines.(i))) with Bad m -> fail i m
      in
      if List.mem name names then fail i (Printf.sprintf "duplicate row %S" name);
      rows (i + 1) (name :: names) (Option.to_list g @ gated)
  in
  let names, gated, rest = rows first_row [] [] in
  if List.filter (( <> ) "") (Array.to_list (Array.sub lines rest (n - rest)))
     <> [ "}" ]
  then fail rest "expected a single '}' after the rows";
  if names = [] then fail first_row "no rows";
  (section, gated)

let () =
  let baseline_path, candidate_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline "usage: check_regression.exe BASELINE CANDIDATE";
      exit 2
  in
  let base_section, baseline = read_record baseline_path in
  let cand_section, candidate = read_record candidate_path in
  if base_section <> cand_section then begin
    Printf.eprintf "section mismatch: %s holds %S, %s holds %S\n" baseline_path
      base_section candidate_path cand_section;
    exit 2
  end;
  let regressions = ref 0 and checked = ref 0 and skipped = ref 0 in
  Printf.printf "%-28s %14s %14s %9s %7s\n" "row" "baseline ns" "candidate ns"
    "ratio" "limit";
  List.iter
    (fun { name; limit; ns = base_ns; r2 } ->
      match r2 with
      | Some r2 when r2 < min_r2 ->
        (* the committed fit is noise: a ratio against it gates nothing.
           Deliberately NOT counted as checked — but also not a failure:
           the row is still present in both files, just unusable. *)
        incr skipped;
        Printf.printf "%-28s %14.1f %14s %9s %6.2fx  SKIPPED (baseline r²=%.2f)\n"
          name base_ns "-" "-" limit r2
      | _ -> (
        match List.find_opt (fun r -> r.name = name) candidate with
        | None ->
          (* a gated row disappearing from the bench is a failure:
             silent coverage loss looks exactly like a perf win *)
          incr regressions;
          Printf.printf "%-28s %14.1f %14s %9s %6.2fx  MISSING\n" name base_ns
            "-" "-" limit
        | Some { ns = cand_ns; _ } ->
          incr checked;
          let ratio = cand_ns /. base_ns in
          let flag = ratio > limit in
          if flag then incr regressions;
          Printf.printf "%-28s %14.1f %14.1f %8.2fx %6.2fx%s\n" name base_ns
            cand_ns ratio limit
            (if flag then "  REGRESSION" else "")))
    baseline;
  if !checked = 0 then begin
    Printf.eprintf "no gated rows checked in %s\n" baseline_path;
    exit 2
  end;
  (* An unusable-baseline row is invisible unless someone scrolls the
     table; the summary line keeps the count of what the gate did NOT
     check in front of whoever reads the CI tail. *)
  let skipped_note =
    if !skipped = 0 then ""
    else Printf.sprintf " (%d row(s) SKIPPED: baseline r² < %.1f)" !skipped min_r2
  in
  if !regressions > 0 then begin
    Printf.printf "\n%d row(s) regressed beyond their limit.%s\n" !regressions
      skipped_note;
    exit 1
  end
  else
    Printf.printf "\nall %d gated rows within their limit.%s\n" !checked
      skipped_note
