(* What the machine was doing around a repetition: core count, load
   average, CPU time taken by everything else, and the process's peak RSS.
   Every reader returns a neutral value where /proc is unavailable. *)

let cores = Domain.recommended_domain_count ()

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let words s =
  String.map (function '\t' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

(* The 1-minute load average. *)
let loadavg () =
  match Option.map words (read_file "/proc/loadavg") with
  | Some (l1 :: _) -> Option.value (float_of_string_opt l1) ~default:0.
  | _ -> 0.

(* Busy CPU seconds summed over all cores since boot, steal time included:
   time the hypervisor gave to other guests was time this one waited. *)
let busy_cpu_s () =
  match read_file "/proc/stat" with
  | None -> 0.
  | Some s -> (
    match words (List.hd (String.split_on_char '\n' s)) with
    | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq
      :: steal :: _ ->
      let ticks =
        List.fold_left
          (fun acc f -> acc +. Option.value (float_of_string_opt f) ~default:0.)
          0.
          [ user; nice; system; irq; softirq; steal ]
      in
      ticks /. 100.
    | _ -> 0.)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> 0.
  | Some s ->
    List.fold_left
      (fun acc line ->
        match words line with
        | "VmHWM:" :: kb :: _ ->
          Option.value (float_of_string_opt kb) ~default:0. /. 1024.
        | _ -> acc)
      0.
      (String.split_on_char '\n' s)

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime
