type align = Left | Right

type t = { columns : (string * align) list; mutable rows : string list list }

let create ~columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let render t =
  let headers = List.map fst t.columns in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cells -> Int.max acc (String.length (List.nth cells i)))
          (String.length h) rows)
      headers
  in
  let buf = Buffer.create 256 in
  let pad align width s =
    let fill = width - String.length s in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
  in
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        let _, align = List.nth t.columns i in
        Buffer.add_string buf (pad align (List.nth widths i) cell);
        Buffer.add_string buf "  ")
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells headers;
  List.iter (fun w -> Buffer.add_string buf (String.make (w + 2) '-')) widths;
  Buffer.add_char buf '\n';
  List.iter emit_cells rows;
  Buffer.contents buf

let print ?title t =
  (match title with
  | Some s ->
      print_newline ();
      print_endline s;
      print_endline (String.make (String.length s) '=')
  | None -> ());
  print_string (render t)

let cell_f x =
  let a = Float.abs x in
  if a >= 1000.0 then Printf.sprintf "%.0f" x
  else if a >= 10.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.3f" x

let cell_pct x = Printf.sprintf "%.2f%%" (x *. 100.0)
