type model = { weights : float array; intercept : float }

(* Solve A x = b in place; A is n×n, b length n. Returns None when the
   pivot degenerates (singular system). *)
let solve a b =
  let n = Array.length b in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      (* Partial pivoting. *)
      let pivot = ref col in
      for row = col + 1 to n - 1 do
        if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
      done;
      if Float.abs a.(!pivot).(col) < 1e-12 then ok := false
      else begin
        if !pivot <> col then begin
          let tmp = a.(col) in
          a.(col) <- a.(!pivot);
          a.(!pivot) <- tmp;
          let tb = b.(col) in
          b.(col) <- b.(!pivot);
          b.(!pivot) <- tb
        end;
        for row = col + 1 to n - 1 do
          let factor = a.(row).(col) /. a.(col).(col) in
          for k = col to n - 1 do
            a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
          done;
          b.(row) <- b.(row) -. (factor *. b.(col))
        done
      end
    end
  done;
  if not !ok then None
  else begin
    let x = Array.make n 0.0 in
    for row = n - 1 downto 0 do
      let sum = ref b.(row) in
      for k = row + 1 to n - 1 do
        sum := !sum -. (a.(row).(k) *. x.(k))
      done;
      x.(row) <- !sum /. a.(row).(row)
    done;
    Some x
  end

(* Adds one observation to the normal equations (X'X) w = X'y; [aug] is
   the feature row followed by the bias column's 1.0. *)
let accumulate xtx xty aug y =
  let k = Array.length aug in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      xtx.(i).(j) <- xtx.(i).(j) +. (aug.(i) *. aug.(j))
    done;
    xty.(i) <- xty.(i) +. (aug.(i) *. y)
  done

let fit xtx xty ~d =
  match solve xtx xty with
  | None -> Error "singular system (collinear features?)"
  | Some w -> Ok { weights = Array.sub w 0 d; intercept = w.(d) }

let train ~features ~targets =
  match features with
  | [] -> Error "no training data"
  | first :: _ ->
      let d = Array.length first in
      let m = List.length features in
      if m <> List.length targets then Error "feature/target count mismatch"
      else if List.exists (fun row -> Array.length row <> d) features then
        Error "inconsistent feature dimensions"
      else begin
        let k = d + 1 in
        let xtx = Array.make_matrix k k 0.0 in
        let xty = Array.make k 0.0 in
        List.iter2
          (fun row y -> accumulate xtx xty (Array.append row [| 1.0 |]) y)
          features targets;
        fit xtx xty ~d
      end

let predict model x =
  let acc = ref model.intercept in
  let d = min (Array.length x) (Array.length model.weights) in
  for i = 0 to d - 1 do
    acc := !acc +. (model.weights.(i) *. x.(i))
  done;
  !acc

let mean_squared_error model ~features ~targets =
  let n = List.length targets in
  if n = 0 then 0.0
  else
    let total =
      List.fold_left2
        (fun acc x y ->
          let e = predict model x -. y in
          acc +. (e *. e))
        0.0 features targets
    in
    total /. float_of_int n

let train_interleaved xy =
  let n = Array.length xy / 2 in
  if Array.length xy mod 2 <> 0 then Error "odd-length interleaved points"
  else if n = 0 then Error "no training data"
  else begin
    let xtx = Array.make_matrix 2 2 0.0 in
    let xty = Array.make 2 0.0 in
    let aug = [| 0.0; 1.0 |] in
    for p = 0 to n - 1 do
      aug.(0) <- xy.(2 * p);
      accumulate xtx xty aug xy.((2 * p) + 1)
    done;
    fit xtx xty ~d:1
  end

let train_simple points =
  train
    ~features:(List.map (fun (x, _) -> [| x |]) points)
    ~targets:(List.map snd points)
