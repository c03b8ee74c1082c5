(* Per-domain mailbox fan-out: a mailbox matrix captured by
   Domain.spawn closures — R6 must fire.  Writing disjoint cells does
   not make the shared matrix safe to this flow-insensitive pass, and no
   closure shape (barriers included) stands R6 down. *)

let exchange xs =
  let mail : int list array array = Array.make_matrix 4 4 [] in
  let workers =
    Array.init 4 (fun w ->
        Domain.spawn (fun () ->
            List.iteri
              (fun i x -> mail.(w).(i mod 4) <- x :: mail.(w).(i mod 4))
              xs))
  in
  Array.iter Domain.join workers;
  mail
