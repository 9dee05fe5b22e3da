(* Declarative experiment descriptors.

   An experiment used to be an opaque [seed -> scale -> unit] closure that
   hid its grid inside nested loops; the registry could neither enumerate
   the cells nor run them anywhere but inline. A descriptor makes the grid
   shape first-class: [cells] enumerates every (figure x policy x knob)
   point, [run_cell] evaluates one point against a run context, and
   [summarize] — always executed on the coordinating domain, after every
   cell has completed — renders tables and checks cross-cell oracles.

   The result type ['r] is existential: each driver picks its own, and the
   pack guarantees [summarize] only ever sees results produced by its own
   [run_cell]. [make] hides the grid's point type the same way: the packed
   [run_cell] looks the point up by the cell's key. *)

type cell = { key : string; label : string }

type t =
  | T : {
      name : string;
      title : string;
      description : string;
      cells : cell list;
      run_cell : Run_ctx.t -> seed:int -> scale:float -> cell -> 'r;
      summarize :
        Run_ctx.t -> seed:int -> scale:float -> (cell * 'r) list -> unit;
    }
      -> t

let result_opt results key =
  List.find_map (fun (c, r) -> if c.key = key then Some r else None) results

let result results key =
  match result_opt results key with Some r -> r | None -> raise Not_found

let make ~name ~title ~description ~grid ~run_cell ~summarize =
  ignore
    (List.fold_left
       (fun seen (c, _) ->
         if List.mem c.key seen then
           invalid_arg
             (Printf.sprintf "Exp_desc.make: duplicate cell key %S in %s" c.key
                name)
         else c.key :: seen)
       [] grid);
  T
    {
      name;
      title;
      description;
      cells = List.map fst grid;
      run_cell =
        (fun ctx ~seed ~scale cell ->
          run_cell ctx ~seed ~scale cell (result grid cell.key));
      summarize;
    }

(* A one-cell experiment: the driver does all its printing through the
   cell context and there is nothing to merge. *)
let single ~name ~title ~description run =
  make ~name ~title ~description
    ~grid:[ ({ key = "all"; label = title }, ()) ]
    ~run_cell:(fun ctx ~seed ~scale _cell () -> run ctx ~seed ~scale)
    ~summarize:(fun _ctx ~seed:_ ~scale:_ _results -> ())

let name (T d) = d.name
let description (T d) = d.description
let cells (T d) = d.cells
let cell_count (T d) = List.length d.cells
