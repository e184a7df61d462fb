module Prng = Owp_util.Prng

type 'm frame =
  | Data of { epoch : int; seq : int; payload : 'm }
  | Ack of { epoch : int; cum : int }

type config = {
  rto_initial : float;
  rto_backoff : float;
  rto_max : float;
  rto_jitter : float;
  max_retries : int;
}

let default_config =
  { rto_initial = 4.0; rto_backoff = 1.6; rto_max = 48.0; rto_jitter = 0.25; max_retries = 24 }

(* Per-link state is flat.  A directed link (src, dst) gets a dense id
   the first time either half is used; its sender half (state at src)
   and receiver half (state at dst) are [stride] consecutive ints of
   [links], its RTO one unboxed float of [rto].  Send windows and
   out-of-order buffers are chains through one frame arena whose free
   slots chain into a free list, so steady traffic allocates only the
   Data frame of each new payload and the timer closures. *)

(* field offsets within a link's stride *)
let f_key = 0 (* packed src * nodes + dst *)
let f_s_epoch = 1 (* sender: incarnation of the stream; -1 = no sender *)
let f_next_seq = 2
let f_retries = 3 (* consecutive timer firings without ack progress *)
let f_flags = 4
let f_gen = 5 (* bumped whenever the sender is cleared: retires its timers *)
let f_win_head = 6 (* window chain [base, next_seq) in seq order; -1 = empty *)
let f_win_tail = 7
let f_r_epoch = 8 (* receiver: peer incarnation tracked; -1 = no receiver *)
let f_cum = 9 (* highest in-order-delivered seq; -1 before any *)
let f_ooo = 10 (* out-of-order chain, ascending seq; -1 = empty *)
let stride = 11

(* sender flags *)
let armed = 1 (* a retransmission timer is pending *)
let dead = 2 (* gave up: peer declared dead for this link *)
let suspected = 4 (* give-up held by an outage episode *)

(* the cached ACK frames cover epoch 0 and cum in [-1, cached_acks - 2] *)
let cached_acks = 16

(* placeholder for free arena slots: keeps no payload alive *)
let no_frame = Ack { epoch = -1; cum = -1 }

type 'm t = {
  net : 'm frame Simnet.t;
  config : config;
  jitter_rng : Prng.t;
  nodes : int;
  epochs : int array; (* per-node incarnation, bumped by restart_node *)
  (* link directory: open addressing over a power-of-two array, slot ->
     link id or -1; keys are compared through the link's f_key field *)
  mutable dir : int array;
  mutable links : int array; (* stride ints per link id *)
  mutable rto : float array; (* per link id *)
  mutable n_links : int;
  (* frame arena: window frames are the Data frames as first sent,
     out-of-order frames the Data frames as received *)
  mutable fr : 'm frame array;
  mutable fr_seq : int array;
  mutable fr_next : int array; (* chain successor, or next free slot *)
  mutable fr_free : int; (* free-list head, -1 when the arena is full *)
  mutable held : int;
  acks : 'm frame array; (* acks.(c + 1) = Ack { epoch = 0; cum = c } *)
  on_deliver : src:int -> dst:int -> 'm -> unit;
  on_peer_dead : node:int -> peer:int -> unit;
  hold : node:int -> peer:int -> bool;
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable duplicates_suppressed : int;
  mutable peers_declared_dead : int;
  mutable links_suspected : int;
  mutable links_resumed : int;
  mutable give_ups_held : int;
}

let validate_config c =
  if c.rto_initial <= 0.0 then invalid_arg "Transport: rto_initial must be positive";
  if c.rto_backoff < 1.0 then invalid_arg "Transport: rto_backoff must be >= 1";
  if c.rto_max < c.rto_initial then invalid_arg "Transport: rto_max below rto_initial";
  if c.rto_jitter < 0.0 then invalid_arg "Transport: negative rto_jitter";
  if c.max_retries < 0 then invalid_arg "Transport: negative max_retries"

let get t l f = t.links.((l * stride) + f)
let set t l f v = t.links.((l * stride) + f) <- v

(* ------------------------------------------------------------------ *)
(* link directory                                                      *)
(* ------------------------------------------------------------------ *)

(* slot where [key] lives or would be inserted (linear probing) *)
let dir_probe t key =
  let mask = Array.length t.dir - 1 in
  let i = ref (key * 0x2545F4914F6CDD1D land mask) in
  while
    let l = t.dir.(!i) in
    l >= 0 && t.links.(l * stride) <> key
  do
    i := (!i + 1) land mask
  done;
  !i

let link_find t key = t.dir.(dir_probe t key)

let grow_links t =
  let cap = max 16 (2 * Array.length t.rto) in
  let links = Array.make (cap * stride) 0 in
  Array.blit t.links 0 links 0 (t.n_links * stride);
  let rto = Array.make cap 0.0 in
  Array.blit t.rto 0 rto 0 t.n_links;
  t.links <- links;
  t.rto <- rto

let grow_dir t =
  t.dir <- Array.make (2 * Array.length t.dir) (-1);
  for l = 0 to t.n_links - 1 do
    t.dir.(dir_probe t (get t l f_key)) <- l
  done

(* id of link [key], created with both halves absent on first use *)
let link t key =
  let slot = dir_probe t key in
  let l = t.dir.(slot) in
  if l >= 0 then l
  else begin
    let l = t.n_links in
    if l = Array.length t.rto then grow_links t;
    t.n_links <- l + 1;
    Array.fill t.links (l * stride) stride (-1);
    set t l f_key key;
    set t l f_gen 0;
    t.dir.(slot) <- l;
    if 2 * t.n_links > Array.length t.dir then grow_dir t;
    l
  end

(* ------------------------------------------------------------------ *)
(* frame arena                                                         *)
(* ------------------------------------------------------------------ *)

let grow_frames t =
  let old = Array.length t.fr in
  let cap = max 64 (2 * old) in
  let fr = Array.make cap no_frame in
  Array.blit t.fr 0 fr 0 old;
  let seq = Array.make cap 0 in
  Array.blit t.fr_seq 0 seq 0 old;
  let next = Array.make cap (-1) in
  Array.blit t.fr_next 0 next 0 old;
  for i = old to cap - 2 do
    next.(i) <- i + 1
  done;
  t.fr <- fr;
  t.fr_seq <- seq;
  t.fr_next <- next;
  t.fr_free <- old

let frame_alloc t frame seq =
  if t.fr_free < 0 then grow_frames t;
  let i = t.fr_free in
  t.fr_free <- t.fr_next.(i);
  t.fr.(i) <- frame;
  t.fr_seq.(i) <- seq;
  t.fr_next.(i) <- -1;
  t.held <- t.held + 1;
  i

let frame_release t i =
  t.fr.(i) <- no_frame;
  t.fr_next.(i) <- t.fr_free;
  t.fr_free <- i;
  t.held <- t.held - 1

let rec release_chain t i =
  if i >= 0 then begin
    let next = t.fr_next.(i) in
    frame_release t i;
    release_chain t next
  end

(* ------------------------------------------------------------------ *)
(* sender                                                              *)
(* ------------------------------------------------------------------ *)

let drop_window t l =
  release_chain t (get t l f_win_head);
  set t l f_win_head (-1);
  set t l f_win_tail (-1)

let drop_ooo t l =
  release_chain t (get t l f_ooo);
  set t l f_ooo (-1)

let clear_sender t l =
  drop_window t l;
  set t l f_s_epoch (-1);
  set t l f_next_seq 0;
  set t l f_retries 0;
  set t l f_flags 0;
  set t l f_gen (get t l f_gen + 1)

(* the link's sender for [src]'s current incarnation *)
let sender t ~src ~dst =
  let l = link t ((src * t.nodes) + dst) in
  let epoch = t.epochs.(src) in
  if get t l f_s_epoch <> epoch then begin
    (* first use, or a stale pre-restart stream: start a fresh one *)
    clear_sender t l;
    set t l f_s_epoch epoch;
    t.rto.(l) <- t.config.rto_initial
  end;
  l

let jittered t d =
  if t.config.rto_jitter <= 0.0 then d
  else d *. (1.0 +. Prng.float t.jitter_rng t.config.rto_jitter)

let give_up t l ~src ~dst =
  set t l f_flags (get t l f_flags lor dead);
  drop_window t l;
  t.peers_declared_dead <- t.peers_declared_dead + 1;
  t.on_peer_dead ~node:src ~peer:dst

(* Retransmission timer for link [l].  The closure captures the link's
   generation at arming time; clearing the sender (crash-restart, stale
   epoch) bumps it, which retires every timer armed before. *)
let rec arm_timer t l =
  let flags = get t l f_flags in
  if flags land armed = 0 then begin
    set t l f_flags (flags lor armed);
    let gen = get t l f_gen in
    Simnet.schedule t.net ~delay:(jittered t t.rto.(l)) (fun () -> fire t l gen)
  end

and fire t l gen =
  if get t l f_gen = gen then begin
    let flags = get t l f_flags land lnot armed in
    set t l f_flags flags;
    let key = get t l f_key in
    let src = key / t.nodes and dst = key mod t.nodes in
    if flags land dead = 0 && get t l f_win_head >= 0 && Simnet.is_up t.net src then begin
      let retries = get t l f_retries in
      if retries >= t.config.max_retries then begin
        if t.hold ~node:src ~peer:dst then begin
          (* a scheduled outage explains the silence: suspect the
             link instead of declaring the peer dead, refresh the
             retry budget, and keep the window retransmitting at
             the capped RTO so the stream resumes by itself once
             the network heals — re-announce, not amnesia *)
          if flags land suspected = 0 then begin
            set t l f_flags (flags lor suspected);
            t.links_suspected <- t.links_suspected + 1
          end;
          t.give_ups_held <- t.give_ups_held + 1;
          set t l f_retries 0;
          resend t l ~src ~dst
        end
        else give_up t l ~src ~dst
      end
      else begin
        set t l f_retries (retries + 1);
        resend t l ~src ~dst
      end
    end
  end

(* go-back-N: resend the whole window, lowest seq first *)
and resend t l ~src ~dst =
  t.rto.(l) <- Float.min (t.rto.(l) *. t.config.rto_backoff) t.config.rto_max;
  let i = ref (get t l f_win_head) in
  while !i >= 0 do
    t.retransmissions <- t.retransmissions + 1;
    Simnet.send t.net ~src ~dst t.fr.(!i);
    i := t.fr_next.(!i)
  done;
  arm_timer t l

let send t ~src ~dst payload =
  if Simnet.is_up t.net src then begin
    if dst < 0 || dst >= t.nodes then invalid_arg "Transport.send: destination out of range";
    let l = sender t ~src ~dst in
    if get t l f_flags land dead = 0 then begin
      let seq = get t l f_next_seq in
      set t l f_next_seq (seq + 1);
      let frame = Data { epoch = get t l f_s_epoch; seq; payload } in
      let i = frame_alloc t frame seq in
      let tail = get t l f_win_tail in
      if tail < 0 then set t l f_win_head i else t.fr_next.(tail) <- i;
      set t l f_win_tail i;
      t.data_sent <- t.data_sent + 1;
      Simnet.send t.net ~src ~dst frame;
      arm_timer t l
    end
  end

(* ------------------------------------------------------------------ *)
(* receiver                                                            *)
(* ------------------------------------------------------------------ *)

let send_ack t ~src ~dst ~epoch ~cum =
  t.acks_sent <- t.acks_sent + 1;
  let frame =
    if epoch = 0 && cum + 1 < cached_acks then t.acks.(cum + 1) else Ack { epoch; cum }
  in
  Simnet.send t.net ~src ~dst frame

(* file [frame] into the ascending out-of-order chain; false if [seq]
   is already there *)
let ooo_insert t l frame seq =
  let prev = ref (-1) and cur = ref (get t l f_ooo) in
  while !cur >= 0 && t.fr_seq.(!cur) < seq do
    prev := !cur;
    cur := t.fr_next.(!cur)
  done;
  if !cur >= 0 && t.fr_seq.(!cur) = seq then false
  else begin
    let i = frame_alloc t frame seq in
    t.fr_next.(i) <- !cur;
    if !prev < 0 then set t l f_ooo i else t.fr_next.(!prev) <- i;
    true
  end

(* hand the buffered frames that continue the in-order prefix to the
   application, in order *)
let rec drain t l ~src ~dst =
  let h = get t l f_ooo in
  if h >= 0 && t.fr_seq.(h) = get t l f_cum + 1 then begin
    let frame = t.fr.(h) in
    set t l f_ooo t.fr_next.(h);
    set t l f_cum t.fr_seq.(h);
    frame_release t h;
    (match frame with Data { payload; _ } -> t.on_deliver ~src ~dst payload | Ack _ -> ());
    drain t l ~src ~dst
  end

let handle_data t ~src ~dst frame ~epoch ~seq payload =
  let l = link t ((src * t.nodes) + dst) in
  if get t l f_r_epoch < 0 then begin
    set t l f_r_epoch epoch;
    set t l f_cum (-1)
  end;
  let r_epoch = get t l f_r_epoch in
  if epoch < r_epoch then () (* frame from a dead incarnation of the peer *)
  else begin
    if epoch > r_epoch then begin
      (* peer restarted: its stream starts over from seq 0 *)
      set t l f_r_epoch epoch;
      set t l f_cum (-1);
      drop_ooo t l
    end;
    let cum = get t l f_cum in
    (* the chain never holds cum + 1: it is drained on arrival *)
    if seq = cum + 1 then begin
      set t l f_cum seq;
      t.on_deliver ~src ~dst payload;
      drain t l ~src ~dst;
      send_ack t ~src:dst ~dst:src ~epoch ~cum:(get t l f_cum)
    end
    else if seq > cum && ooo_insert t l frame seq then
      send_ack t ~src:dst ~dst:src ~epoch ~cum
    else begin
      (* duplicate (network-level or retransmission): suppress, but
         re-ack so the sender stops retransmitting *)
      t.duplicates_suppressed <- t.duplicates_suppressed + 1;
      send_ack t ~src:dst ~dst:src ~epoch ~cum
    end
  end

let handle_ack t ~src ~dst ~epoch ~cum =
  (* [src] acked stream (dst -> src); the window lives at [dst] *)
  let l = link_find t ((dst * t.nodes) + src) in
  if l >= 0 && get t l f_s_epoch = epoch && get t l f_flags land dead = 0 then begin
    let h = get t l f_win_head in
    if h >= 0 && t.fr_seq.(h) <= cum then begin
      (* the window is [base, next_seq): progress pops a prefix *)
      let i = ref h in
      while !i >= 0 && t.fr_seq.(!i) <= cum do
        let next = t.fr_next.(!i) in
        frame_release t !i;
        i := next
      done;
      set t l f_win_head !i;
      if !i < 0 then set t l f_win_tail (-1);
      (* forward progress: the peer is alive, reset the backoff *)
      set t l f_retries 0;
      t.rto.(l) <- t.config.rto_initial;
      let flags = get t l f_flags in
      if flags land suspected <> 0 then begin
        (* the first ACK through a healed link clears the suspicion *)
        set t l f_flags (flags land lnot suspected);
        t.links_resumed <- t.links_resumed + 1
      end
    end
  end

let create ?(config = default_config) ?(jitter_seed = 0x7A5)
    ?(hold = fun ~node:_ ~peer:_ -> false) net ~on_deliver ~on_peer_dead =
  validate_config config;
  let t =
    {
      net;
      config;
      jitter_rng = Prng.create jitter_seed;
      nodes = Simnet.node_count net;
      epochs = Array.make (max (Simnet.node_count net) 1) 0;
      dir = Array.make 64 (-1);
      links = [||];
      rto = [||];
      n_links = 0;
      fr = [||];
      fr_seq = [||];
      fr_next = [||];
      fr_free = -1;
      held = 0;
      acks = Array.init cached_acks (fun i -> Ack { epoch = 0; cum = i - 1 });
      on_deliver;
      on_peer_dead;
      hold;
      data_sent = 0;
      retransmissions = 0;
      acks_sent = 0;
      duplicates_suppressed = 0;
      peers_declared_dead = 0;
      links_suspected = 0;
      links_resumed = 0;
      give_ups_held = 0;
    }
  in
  Simnet.set_handler net (fun ~src ~dst frame ->
      match frame with
      | Data { epoch; seq; payload } -> handle_data t ~src ~dst frame ~epoch ~seq payload
      | Ack { epoch; cum } -> handle_ack t ~src ~dst ~epoch ~cum);
  t

let restart_node t v =
  if v < 0 || v >= Array.length t.epochs then
    invalid_arg "Transport.restart_node: node out of range";
  (* volatile transport state is lost with the crash; the epoch bump is
     the non-volatile part (think boot counter) that lets peers tell old
     frames from new ones *)
  t.epochs.(v) <- t.epochs.(v) + 1;
  for l = 0 to t.n_links - 1 do
    let key = get t l f_key in
    if key / t.nodes = v && get t l f_s_epoch >= 0 then clear_sender t l;
    if key mod t.nodes = v && get t l f_r_epoch >= 0 then begin
      drop_ooo t l;
      set t l f_r_epoch (-1)
    end
  done

let peer_dead t ~node ~peer =
  node >= 0 && node < t.nodes && peer >= 0 && peer < t.nodes
  &&
  let l = link_find t ((node * t.nodes) + peer) in
  l >= 0 && get t l f_s_epoch >= 0 && get t l f_flags land dead <> 0

let footprint_words t =
  Array.length t.dir + Array.length t.links + Array.length t.rto
  + (3 * Array.length t.fr)
  + Array.length t.acks + Array.length t.epochs

let frames_held t = t.held
let data_sent t = t.data_sent
let retransmissions t = t.retransmissions
let acks_sent t = t.acks_sent
let duplicates_suppressed t = t.duplicates_suppressed
let peers_declared_dead t = t.peers_declared_dead
let links_suspected t = t.links_suspected
let links_resumed t = t.links_resumed
let give_ups_held t = t.give_ups_held
let frames_sent t = t.data_sent + t.retransmissions + t.acks_sent
