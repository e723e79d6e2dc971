module Cluster_config = Mk_node.Cluster_config
module Driver = Mk_node.Client_driver

type node_stats = {
  exit_ok : bool;
  committed : int;
  decode_errors : int;
  bytes : int;
  peak_rss_kb : int;
}

type run = {
  result : Driver.result;
  setup_s : float;
  minor_words : float;
  nodes : node_stats array;
  problems : string list;
}

let n_nodes = 3
let keys = 65536

(* A forked node: its stdin carries the cluster config, its stdout the
   `port <n>' announcement and, at shutdown, the `stats <json>' line. *)
type child = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  buf : Buffer.t;
}

let spawn ~node_exe i =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      node_exe; "--me"; Printf.sprintf "node%d" i; "--cluster"; "-";
      "--port"; "auto"; "--cores"; "1"; "--keys"; string_of_int keys;
    |]
  in
  let pid = Unix.create_process node_exe args stdin_r stdout_w Unix.stderr in
  Unix.close stdin_r;
  Unix.close stdout_w;
  { pid; to_child = stdin_w; from_child = stdout_r; buf = Buffer.create 256 }

(* Next line from a child, or [None] at EOF or after [timeout_s]. *)
let read_line child ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents child.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear child.buf;
        Buffer.add_string child.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ child.from_child ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read child.from_child chunk 0 4096 with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes child.buf chunk 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()))
  in
  go ()

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One integer field of the stats JSON the node printed; -1 if absent. *)
let int_field json name =
  let key = Printf.sprintf "\"%s\": " name in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length json then -1
    else if String.sub json i kl = key then
      Scanf.sscanf (String.sub json (i + kl) (String.length json - i - kl))
        "%d" Fun.id
    else find (i + 1)
  in
  try find 0 with Scanf.Scan_failure _ | Failure _ | End_of_file -> -1

let handshake children =
  let ports =
    Array.mapi
      (fun i child ->
        match read_line child ~timeout_s:10.0 with
        | Some line -> Scanf.sscanf line "port %d" Fun.id
        | None -> failwith (Printf.sprintf "node%d: no port announcement" i))
      children
  in
  let cluster =
    Array.mapi
      (fun i port ->
        { Cluster_config.name = Printf.sprintf "node%d" i; host = "127.0.0.1"; port })
      ports
  in
  let text = Cluster_config.to_string cluster in
  Array.iter
    (fun child ->
      write_all child.to_child text;
      Unix.close child.to_child)
    children;
  cluster

(* Shutdown is a UDP frame: resend until the stats line arrives. *)
let gather cluster child =
  let rec attempt n =
    if n = 0 then None
    else begin
      ignore (Driver.shutdown ~cluster () : (unit, string) result);
      let rec scan () =
        match read_line child ~timeout_s:2.0 with
        | None -> None
        | Some line when String.starts_with ~prefix:"stats " line ->
            Some (String.sub line 6 (String.length line - 6))
        | Some _ -> scan ()
      in
      match scan () with Some s -> Some s | None -> attempt (n - 1)
    end
  in
  let stats = attempt 5 in
  if stats = None then (
    try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
  stats

(* On any failure in [f], stop the nodes before giving up. *)
let guard children f =
  try f ()
  with e ->
    Array.iter
      (fun c ->
        (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid : int * Unix.process_status))
      children;
    raise e

(* Fork the nodes and complete the handshake, timed. *)
let launch ~node_exe =
  let t0 = Unix.gettimeofday () in
  let children = Array.init n_nodes (spawn ~node_exe) in
  let cluster = guard children (fun () -> handshake children) in
  (children, cluster, Unix.gettimeofday () -. t0)

(* Shut every node down; its stats line (if any) and whether it exited
   with status 0. *)
let stop cluster children =
  let stats = Array.map (gather cluster) children in
  Array.mapi
    (fun i child ->
      let status = snd (Unix.waitpid [] child.pid) in
      Unix.close child.from_child;
      (stats.(i), stats.(i) <> None && status = Unix.WEXITED 0))
    children

let setup_probe ~node_exe =
  let children, cluster, setup_s = launch ~node_exe in
  if not (Array.for_all snd (stop cluster children)) then
    failwith "cluster: a node did not exit cleanly after a set-up probe";
  setup_s

let run ~node_exe ~seed ~seconds =
  let children, cluster, setup_s = launch ~node_exe in
  let guard f = guard children f in
  let dcfg =
    {
      Driver.default_config with
      coordinators = 1;
      clients = 32;
      keys;
      theta = 0.0;
      workload = Driver.Ycsb_t;
      duration = Some seconds;
      seed;
    }
  in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let result =
    guard (fun () ->
        match Driver.run dcfg ~cluster with
        | Ok r -> r
        | Error msg -> failwith ("cluster driver: " ^ msg))
  in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  let rss = Array.map (fun c -> Host.peak_rss_kb ~pid:c.pid ()) children in
  let nodes =
    Array.mapi
      (fun i (stats, exit_ok) ->
        let field name =
          match stats with Some s -> int_field s name | None -> -1
        in
        {
          exit_ok;
          committed = field "committed";
          decode_errors = field "wire_decode_errors";
          bytes = field "wire_bytes_tx" + field "wire_bytes_rx";
          peak_rss_kb = rss.(i);
        })
      (stop cluster children)
  in
  let node_problems =
    List.concat
      (List.mapi
         (fun i n ->
           (if n.exit_ok then []
            else [ Printf.sprintf "cluster: node%d did not exit cleanly" i ])
           @
           if n.decode_errors <> 0 then
             [ Printf.sprintf "cluster: node%d: %d decode errors" i n.decode_errors ]
           else [])
         (Array.to_list nodes))
  in
  let counts = Array.map (fun n -> n.committed) nodes in
  let agree =
    if Array.for_all (fun c -> c = counts.(0)) counts then []
    else
      [
        Printf.sprintf "cluster: replicas committed different counts (%s)"
          (String.concat ", " (Array.to_list (Array.map string_of_int counts)));
      ]
  in
  let problems =
    Gate.check ~what:"cluster" ~submitted:result.Driver.submitted
      ~acked:result.Driver.acked ~committed:result.Driver.committed
    @ node_problems @ agree
  in
  { result; setup_s; minor_words; nodes; problems }
