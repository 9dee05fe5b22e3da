type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- writer -------------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.17g round-trips every float; trim to a canonical form so equal
         values always print identically (determinism of exports). *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  write buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

(* --- parser -------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | Some _ | None -> ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some x -> fail cur (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; loop ()
        | Some '/' -> advance cur; Buffer.add_char buf '/'; loop ()
        | Some '"' -> advance cur; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance cur; Buffer.add_char buf '\\'; loop ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.s then fail cur "bad \\u escape";
            let hex = String.sub cur.s cur.pos 4 in
            cur.pos <- cur.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail cur "bad \\u escape"
            in
            (* Escaped control characters only ever come from our own
               writer, which never emits codes above 0x1F. *)
            Buffer.add_char buf (Char.chr (code land 0xff));
            loop ()
        | Some c -> fail cur (Printf.sprintf "bad escape \\%c" c)
        | None -> fail cur "unterminated escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec scan () =
    match peek cur with
    | Some c when is_num_char c ->
        advance cur;
        scan ()
    | Some _ | None -> ()
  in
  scan ();
  let lit = String.sub cur.s start (cur.pos - start) in
  match int_of_string_opt lit with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail cur (Printf.sprintf "invalid number %S" lit))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' -> (
      advance cur;
      skip_ws cur;
      match peek cur with
      | Some '}' ->
          advance cur;
          Obj []
      | _ ->
          let rec fields acc =
            skip_ws cur;
            let k = parse_string cur in
            skip_ws cur;
            expect cur ':';
            let v = parse_value cur in
            skip_ws cur;
            match peek cur with
            | Some ',' ->
                advance cur;
                fields ((k, v) :: acc)
            | Some '}' ->
                advance cur;
                List.rev ((k, v) :: acc)
            | _ -> fail cur "expected , or } in object"
          in
          Obj (fields []))
  | Some '[' -> (
      advance cur;
      skip_ws cur;
      match peek cur with
      | Some ']' ->
          advance cur;
          Arr []
      | _ ->
          let rec items acc =
            let v = parse_value cur in
            skip_ws cur;
            match peek cur with
            | Some ',' ->
                advance cur;
                items (v :: acc)
            | Some ']' ->
                advance cur;
                List.rev (v :: acc)
            | _ -> fail cur "expected , or ] in array"
          in
          Arr (items []))
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let parse s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

(* --- accessors ----------------------------------------------------------- *)

(* Not [List.assoc_opt], which compares keys through Stdlib's
   polymorphic [compare]. *)
let rec field key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

let member key = function Obj fields -> field key fields | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_str = function Str s -> Some s | _ -> None
