(* A [for] loop over a local ref: the compiler keeps the accumulator
   unboxed, so hashing allocates nothing per byte (a [String.iter] closure
   would box an [Int64] per byte). *)
let hash64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let hex s = Printf.sprintf "%016Lx" (hash64 s)
