type t = {
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create headers = { headers; rows = [] }

let add_row t cells = t.rows <- cells :: t.rows

(* column widths in displayed characters, not bytes: count UTF-8 sequence
   starts so that symbols like ⊥ or ⊕ don't skew the alignment *)
let display_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let fit n cells =
  let len = List.length cells in
  if len = n then cells
  else if len < n then cells @ List.init (n - len) (fun _ -> "")
  else Util.list_take n cells

let to_string ?title t =
  let n = List.length t.headers in
  let rows = List.rev t.rows in
  let all_cell_rows = t.headers :: List.map (fit n) rows in
  let widths = Array.make n 0 in
  List.iter
    (fun cells ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (display_width c)) cells)
    all_cell_rows;
  let buf = Buffer.create 1024 in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let render_cells cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (widths.(i) - display_width c) ' ');
        Buffer.add_string buf " |")
      (fit n cells);
    Buffer.add_char buf '\n'
  in
  (match title with
   | Some s ->
     Buffer.add_string buf s;
     Buffer.add_char buf '\n'
   | None -> ());
  line '-';
  render_cells t.headers;
  line '=';
  List.iter render_cells rows;
  line '-';
  Buffer.contents buf

let print ?title t = print_string (to_string ?title t)

let cell_int = string_of_int

let cell_pct x = Printf.sprintf "%.1f%%" (100. *. x)

let cell_bool b = if b then "yes" else "no"

let cell_ratio num den = Printf.sprintf "%d/%d" num den
