type stats = {
  live_sets : int;
  live_structures : int;
  set_hits : int;
  set_misses : int;
  structure_hits : int;
  structure_misses : int;
  restrict_hits : int;
  restrict_misses : int;
  join_hits : int;
  join_misses : int;
}

let stats () =
  {
    live_sets = 0;
    live_structures = 0;
    set_hits = 0;
    set_misses = 0;
    structure_hits = 0;
    structure_misses = 0;
    restrict_hits = 0;
    restrict_misses = 0;
    join_hits = 0;
    join_misses = 0;
  }

let clear () = ()
