module Summary = struct
  (* Float-only, so [add] overwrites the fields in place instead of
     allocating boxed floats.  [n] is a count, held exactly. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () =
    { n = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

  let add t x =
    t.n <- t.n +. 1.0;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.total <- t.total +. x

  let count t = int_of_float t.n
  let mean t = if t.n = 0.0 then 0.0 else t.mean
  let variance t = if t.n < 2.0 then 0.0 else t.m2 /. (t.n -. 1.0)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.n = 0.0 then { b with n = b.n }
    else if b.n = 0.0 then { a with n = a.n }
    else begin
      let n = a.n +. b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. b.n /. n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n) in
      {
        n;
        mean;
        m2;
        min = Stdlib.min a.min b.min;
        max = Stdlib.max a.max b.max;
        total = a.total +. b.total;
      }
    end
end

module Histogram = struct
  type t = {
    sub_bits : int;
    mutable counts : int array;
    mutable n : int;
    mutable sum : float;
  }

  let create ?(sub_bits = 5) () =
    if sub_bits < 0 || sub_bits > 10 then invalid_arg "Histogram.create: sub_bits";
    { sub_bits; counts = Array.make 1024 0; n = 0; sum = 0.0 }

  (* Bucket index: exponent of the power-of-two range times the number
     of sub-buckets, plus the linear position within that range. *)
  let bucket_of_value t v =
    let v = if v < 1.0 then 1.0 else v in
    let exp = int_of_float (Float.log2 v) in
    let lower = Float.pow 2.0 (float_of_int exp) in
    let frac = (v -. lower) /. lower in
    let sub = int_of_float (frac *. float_of_int (1 lsl t.sub_bits)) in
    let sub = Stdlib.min sub ((1 lsl t.sub_bits) - 1) in
    (exp lsl t.sub_bits) + sub

  let value_of_bucket t i =
    let exp = i lsr t.sub_bits in
    let sub = i land ((1 lsl t.sub_bits) - 1) in
    let lower = Float.pow 2.0 (float_of_int exp) in
    (* Upper bound of the bucket, so percentiles over-approximate. *)
    lower +. (lower *. float_of_int (sub + 1) /. float_of_int (1 lsl t.sub_bits))

  let ensure t i =
    let cap = Array.length t.counts in
    if i >= cap then begin
      let ncap = Stdlib.max (i + 1) (cap * 2) in
      let ncounts = Array.make ncap 0 in
      Array.blit t.counts 0 ncounts 0 cap;
      t.counts <- ncounts
    end

  let add t v =
    let v = if v < 0.0 then 0.0 else v in
    let i = bucket_of_value t v in
    ensure t i;
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let target = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      let target = Stdlib.max target 1 in
      let acc = ref 0 and result = ref 0.0 and found = ref false in
      Array.iteri
        (fun i c ->
          if (not !found) && c > 0 then begin
            acc := !acc + c;
            if !acc >= target then begin
              result := value_of_bucket t i;
              found := true
            end
          end)
        t.counts;
      !result
    end

  let median t = percentile t 50.0

  let merge a b =
    if a.sub_bits <> b.sub_bits then invalid_arg "Histogram.merge: sub_bits differ";
    let len = Stdlib.max (Array.length a.counts) (Array.length b.counts) in
    let counts = Array.make len 0 in
    Array.iteri (fun i c -> counts.(i) <- c) a.counts;
    Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
    { sub_bits = a.sub_bits; counts; n = a.n + b.n; sum = a.sum +. b.sum }
end

module P2 = struct
  (* Jain & Chlamtac, "The P² algorithm for dynamic calculation of
     quantiles and histograms without storing observations" (1985).
     Five markers track the min, the q/2, q, (1+q)/2 quantiles and the
     max; marker heights are adjusted with a piecewise-parabolic fit as
     samples arrive.

     The whole state is one flat float array: [q] at 0, the sample
     count at 1 (held exactly), then the five marker heights, actual
     positions (1-based) and desired positions.  The desired positions'
     increments are recomputed from [q]. *)
  type t = float array

  let height i = 2 + i
  let pos i = 7 + i
  let desired i = 12 + i

  let increment q = function
    | 0 -> 0.0
    | 1 -> q /. 2.0
    | 2 -> q
    | 3 -> (1.0 +. q) /. 2.0
    | _ -> 1.0

  let create ~q =
    if q <= 0.0 || q >= 1.0 then invalid_arg "P2.create: q must be in (0,1)";
    let t = Array.make 17 0.0 in
    t.(0) <- q;
    for i = 0 to 4 do
      t.(pos i) <- float_of_int (i + 1)
    done;
    t.(desired 0) <- 1.0;
    t.(desired 1) <- 1.0 +. (2.0 *. q);
    t.(desired 2) <- 1.0 +. (4.0 *. q);
    t.(desired 3) <- 3.0 +. (2.0 *. q);
    t.(desired 4) <- 5.0;
    t

  let count (t : t) = int_of_float t.(1)

  (* The first [n] heights, sorted. *)
  let sorted_heights (t : t) n =
    let a = Array.sub t (height 0) n in
    Array.sort compare a;
    a

  let parabolic (t : t) i d =
    let q i = t.(height i) and n i = t.(pos i) in
    q i
    +. d
       /. (n (i + 1) -. n (i - 1))
       *. (((n i -. n (i - 1) +. d) *. (q (i + 1) -. q i) /. (n (i + 1) -. n i))
          +. ((n (i + 1) -. n i -. d) *. (q i -. q (i - 1)) /. (n i -. n (i - 1))))

  let linear (t : t) i d =
    let q i = t.(height i) and n i = t.(pos i) in
    q i +. (d *. (q (i + int_of_float d) -. q i) /. (n (i + int_of_float d) -. n i))

  let add (t : t) x =
    let n = count t in
    if n < 5 then begin
      t.(height n) <- x;
      t.(1) <- float_of_int (n + 1);
      if n + 1 = 5 then Array.blit (sorted_heights t 5) 0 t (height 0) 5
    end
    else begin
      (* find the cell k in [0,3] containing x, updating extremes *)
      let k =
        if x < t.(height 0) then begin
          t.(height 0) <- x;
          0
        end
        else if x >= t.(height 4) then begin
          t.(height 4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 0 to 3 do
            if t.(height i) <= x && x < t.(height (i + 1)) then k := i
          done;
          !k
        end
      in
      (* increment positions of markers above the cell *)
      for i = k + 1 to 4 do
        t.(pos i) <- t.(pos i) +. 1.0
      done;
      (* update desired positions *)
      for i = 0 to 4 do
        t.(desired i) <- t.(desired i) +. increment t.(0) i
      done;
      (* adjust the three middle markers *)
      for i = 1 to 3 do
        let d = t.(desired i) -. t.(pos i) in
        if
          (d >= 1.0 && t.(pos (i + 1)) -. t.(pos i) > 1.0)
          || (d <= -1.0 && t.(pos (i - 1)) -. t.(pos i) < -1.0)
        then begin
          let d = if d >= 0.0 then 1.0 else -1.0 in
          let candidate = parabolic t i d in
          let fits = t.(height (i - 1)) < candidate && candidate < t.(height (i + 1)) in
          t.(height i) <- (if fits then candidate else linear t i d);
          t.(pos i) <- t.(pos i) +. d
        end
      done;
      t.(1) <- float_of_int (n + 1)
    end

  let value (t : t) =
    let n = count t in
    if n = 0 then None
    else if n < 5 then begin
      (* exact quantile over the few samples seen *)
      let idx = int_of_float (Float.round (t.(0) *. float_of_int (n - 1))) in
      Some (sorted_heights t n).(idx)
    end
    else Some t.(height 2)
end

module Time_avg = struct
  type t = {
    start : Time.t;
    mutable last_time : Time.t;
    mutable last_value : float;
    mutable integral : float;
  }

  let create ~at ~value = { start = at; last_time = at; last_value = value; integral = 0.0 }

  let advance t at =
    if Time.compare at t.last_time < 0 then
      invalid_arg "Time_avg.update: time went backwards";
    let dt = float_of_int (Time.diff at t.last_time) in
    t.integral <- t.integral +. (t.last_value *. dt);
    t.last_time <- at

  let update t ~at ~value =
    advance t at;
    t.last_value <- value

  let average t ~upto =
    let elapsed = Time.diff upto t.start in
    if elapsed <= 0 then t.last_value
    else begin
      let tail =
        if Time.compare upto t.last_time > 0 then
          t.last_value *. float_of_int (Time.diff upto t.last_time)
        else 0.0
      in
      (t.integral +. tail) /. float_of_int elapsed
    end
end
