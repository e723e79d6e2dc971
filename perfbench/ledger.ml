external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

type layer =
  | Txn
  | Workload
  | Replica_get
  | Protocol
  | Mailbox
  | Codec
  | Shim
  | Replica_validate
  | Replica_commit
  | Wal
  | Checker

let all =
  [|
    Txn;
    Workload;
    Replica_get;
    Protocol;
    Mailbox;
    Codec;
    Shim;
    Replica_validate;
    Replica_commit;
    Wal;
    Checker;
  |]

let layers = List.tl (Array.to_list all)

let index = function
  | Txn -> 0
  | Workload -> 1
  | Replica_get -> 2
  | Protocol -> 3
  | Mailbox -> 4
  | Codec -> 5
  | Shim -> 6
  | Replica_validate -> 7
  | Replica_commit -> 8
  | Wal -> 9
  | Checker -> 10

let layer_name = function
  | Txn -> "txn"
  | Workload -> "workload"
  | Replica_get -> "replica.get"
  | Protocol -> "protocol"
  | Mailbox -> "mailbox"
  | Codec -> "codec"
  | Shim -> "shim"
  | Replica_validate -> "replica.validate"
  | Replica_commit -> "replica.commit"
  | Wal -> "wal"
  | Checker -> "checker"

type t = {
  layer : int array;
  parent : int array;
  tid : int array;
  start : int array;
  stop : int array;
  w0 : float array;
  w1 : float array;
  mutable n : int;
  mutable cur : int;  (** Innermost open span, -1 at top level. *)
}

let create ~capacity =
  {
    layer = Array.make capacity 0;
    parent = Array.make capacity (-1);
    tid = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    w0 = Array.make capacity 0.0;
    w1 = Array.make capacity 0.0;
    n = 0;
    cur = -1;
  }

let length t = t.n

let clear t =
  t.n <- 0;
  t.cur <- -1

let enter t layer ~tid =
  let i = t.n in
  if i >= Array.length t.layer then failwith "Ledger.enter: ledger full";
  t.n <- i + 1;
  t.layer.(i) <- index layer;
  t.parent.(i) <- t.cur;
  t.tid.(i) <- tid;
  t.cur <- i;
  t.w0.(i) <- Gc.minor_words ();
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.w1.(i) <- Gc.minor_words ();
  t.cur <- t.parent.(i)

let span l layer ~tid f =
  match l with
  | None -> f ()
  | Some t ->
      let i = enter t layer ~tid in
      let r = f () in
      leave t i;
      r

(* Time and words covered by each span's direct children. *)
let child_sums t =
  let ns = Array.make t.n 0 and words = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      ns.(p) <- ns.(p) + (t.stop.(i) - t.start.(i));
      words.(p) <- words.(p) +. (t.w1.(i) -. t.w0.(i))
    end
  done;
  (ns, words)

type stat = { calls : int; self_ns : int; self_words : float }

let stats t =
  let cns, cwords = child_sums t in
  let k = Array.length all in
  let calls = Array.make k 0 and ns = Array.make k 0 and words = Array.make k 0.0 in
  for i = 0 to t.n - 1 do
    let l = t.layer.(i) in
    calls.(l) <- calls.(l) + 1;
    ns.(l) <- ns.(l) + (t.stop.(i) - t.start.(i) - cns.(i));
    words.(l) <- words.(l) +. (t.w1.(i) -. t.w0.(i) -. cwords.(i))
  done;
  fun layer ->
    let l = index layer in
    { calls = calls.(l); self_ns = ns.(l); self_words = words.(l) }

let total_self_ns t =
  let st = stats t in
  List.fold_left (fun acc l -> acc + (st l).self_ns) 0 layers

let nesting_violations t =
  let cns, _ = child_sums t in
  let bad = ref 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    let outside =
      p >= 0 && (t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p))
    in
    if outside || cns.(i) > t.stop.(i) - t.start.(i) then incr bad
  done;
  !bad

let write t ~path =
  let base = if t.n = 0 then 0 else t.start.(0) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "span\tlayer\tparent\ttxn\tstart_ns\tend_ns\twords\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%.0f\n" i
          (layer_name all.(t.layer.(i)))
          t.parent.(i) t.tid.(i)
          (t.start.(i) - base)
          (t.stop.(i) - base)
          (t.w1.(i) -. t.w0.(i))
      done)
