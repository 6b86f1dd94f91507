exception Truncated

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    let v = Int32.to_int v land 0xFFFFFFFF in
    u8 t (v lsr 24);
    u8 t (v lsr 16);
    u8 t (v lsr 8);
    u8 t v

  let u32_of_int t v = u32 t (Int32.of_int v)

  let u64 t v =
    u32 t (Int64.to_int32 (Int64.shift_right_logical v 32));
    u32 t (Int64.to_int32 v)

  let raw t s = Buffer.add_string t s
  let contents = Buffer.contents
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  let of_string s = { src = s; pos = 0 }
  let remaining t = String.length t.src - t.pos

  let u8 t =
    if t.pos >= String.length t.src then raise Truncated;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let a = u8 t in
    let b = u8 t in
    (a lsl 8) lor b

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    Int32.logor (Int32.shift_left (Int32.of_int a) 16) (Int32.of_int b)

  let u32_to_int t =
    let a = u16 t in
    let b = u16 t in
    (a lsl 16) lor b

  let raw t n =
    if n < 0 || remaining t < n then raise Truncated;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let expect_end t = if remaining t <> 0 then raise Truncated
end
