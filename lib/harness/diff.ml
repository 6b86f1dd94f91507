(* Line-based unified diff, for readable golden-test failure messages.
   Classic LCS dynamic programme over the middle section left after
   stripping the common prefix and suffix; a size guard degrades
   pathological inputs to a single replace hunk so the DP table stays
   bounded. *)

type op = Keep of string | Del of string | Add of string

(* Splitting "a\nb\n" yields ["a"; "b"]. A missing final newline is made
   visible as an extra pseudo-line, the way diff(1) annotates it, so
   "a\nb" and "a\nb\n" never compare equal line-wise. *)
let lines_of s =
  if String.length s = 0 then []
  else
    let raw = String.split_on_char '\n' s in
    let rec drop_last_empty = function
      | [ "" ] -> []
      | x :: rest -> x :: drop_last_empty rest
      | [] -> []
    in
    if s.[String.length s - 1] = '\n' then drop_last_empty raw
    else raw @ [ "\\ No newline at end of file" ]

let common_prefix a b =
  let n = min (Array.length a) (Array.length b) in
  let i = ref 0 in
  while !i < n && String.equal a.(!i) b.(!i) do
    incr i
  done;
  !i

(* Longest common suffix of a and b that does not overlap the first
   [prefix] lines of either. *)
let common_suffix ~prefix a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb - prefix in
  let i = ref 0 in
  while !i < n && String.equal a.(la - 1 - !i) b.(lb - 1 - !i) do
    incr i
  done;
  !i

(* Above this many DP cells, fall back to delete-all/add-all for the
   middle section. Goldens are a few thousand lines at most, so the
   guard only fires on degenerate inputs. *)
let max_dp_cells = 4_000_000

let lcs_ops a b =
  let m = Array.length a and n = Array.length b in
  if m * n > max_dp_cells then
    Array.to_list (Array.map (fun l -> Del l) a) @ Array.to_list (Array.map (fun l -> Add l) b)
  else begin
    (* dp.(i).(j) = LCS length of a[i..] and b[j..]. *)
    let dp = Array.make_matrix (m + 1) (n + 1) 0 in
    for i = m - 1 downto 0 do
      for j = n - 1 downto 0 do
        dp.(i).(j) <-
          (if String.equal a.(i) b.(j) then dp.(i + 1).(j + 1) + 1
           else max dp.(i + 1).(j) dp.(i).(j + 1))
      done
    done;
    let ops = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < m || !j < n do
      if !i < m && !j < n && String.equal a.(!i) b.(!j) then begin
        ops := Keep a.(!i) :: !ops;
        incr i;
        incr j
      end
      else if !i < m && (!j = n || dp.(!i + 1).(!j) >= dp.(!i).(!j + 1)) then begin
        (* On ties prefer the deletion, so hunks read -old then +new. *)
        ops := Del a.(!i) :: !ops;
        incr i
      end
      else begin
        ops := Add b.(!j) :: !ops;
        incr j
      end
    done;
    List.rev !ops
  end

(* Kept lines around each change. *)
let context = 3

let unified ?(label_a = "expected") ?(label_b = "actual") sa sb =
  if String.equal sa sb then None
  else begin
    let a = Array.of_list (lines_of sa) and b = Array.of_list (lines_of sb) in
    let p = common_prefix a b in
    let s = common_suffix ~prefix:p a b in
    let keeps arr lo len = Array.to_list (Array.map (fun l -> Keep l) (Array.sub arr lo len)) in
    let ops =
      Array.of_list
        (keeps a 0 p
        @ lcs_ops (Array.sub a p (Array.length a - p - s)) (Array.sub b p (Array.length b - p - s))
        @ keeps a (Array.length a - s) s)
    in
    let n = Array.length ops in
    (* A line belongs to a hunk if it is a change, or a kept line within
       [context] of one. *)
    let in_hunk = Array.make n false in
    Array.iteri
      (fun i op ->
        match op with
        | Keep _ -> ()
        | Del _ | Add _ ->
            for j = max 0 (i - context) to min (n - 1) (i + context) do
              in_hunk.(j) <- true
            done)
      ops;
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "--- %s\n+++ %s\n" label_a label_b);
    let old_line = ref 1 and new_line = ref 1 in
    let i = ref 0 in
    while !i < n do
      if not in_hunk.(!i) then begin
        (* Outside hunks only kept lines occur. *)
        incr old_line;
        incr new_line;
        incr i
      end
      else begin
        let hunk_end = ref !i in
        while !hunk_end < n && in_hunk.(!hunk_end) do
          incr hunk_end
        done;
        let old_start = !old_line and new_start = !new_line in
        let body = Buffer.create 128 in
        for k = !i to !hunk_end - 1 do
          match ops.(k) with
          | Keep l ->
              Buffer.add_string body (" " ^ l ^ "\n");
              incr old_line;
              incr new_line
          | Del l ->
              Buffer.add_string body ("-" ^ l ^ "\n");
              incr old_line
          | Add l ->
              Buffer.add_string body ("+" ^ l ^ "\n");
              incr new_line
        done;
        Buffer.add_string buf
          (Printf.sprintf "@@ -%d,%d +%d,%d @@\n" old_start (!old_line - old_start) new_start
             (!new_line - new_start));
        Buffer.add_buffer buf body;
        i := !hunk_end
      end
    done;
    Some (Buffer.contents buf)
  end
