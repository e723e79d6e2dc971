let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all)
  with Sys_error _ -> None

let peak_rss_kb ?pid () =
  let who = match pid with Some p -> string_of_int p | None -> "self" in
  match read_file (Printf.sprintf "/proc/%s/status" who) with
  | None -> 0
  | Some status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
      |> Option.value ~default:0

let reset_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let cpu_ticks () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      match String.split_on_char '\n' s with
      | line :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | "cpu" :: fields ->
              let ticks = List.filter_map int_of_string_opt fields in
              let steal = match List.nth_opt ticks 7 with Some t -> t | None -> 0 in
              (steal, List.fold_left ( + ) 0 ticks)
          | _ -> (0, 0))
      | [] -> (0, 0))

let load1 () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | l :: _ -> Option.value ~default:(-1.0) (float_of_string_opt l)
      | [] -> -1.0)
  | None -> -1.0

let metadata ~commit =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"load1\": %.2f}"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit (load1 ())
