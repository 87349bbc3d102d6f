(* Timing wrappers for the traced pass. Each one forwards to the library
   function it wraps and charges the call to a {!Tracer} stage, so the real
   engines run unchanged while the benchmark sees every call into the spec,
   the implementation under test and the observation mask. *)

open Sandtable

let s_next = Tracer.stage "spec.next"
let s_invariant = Tracer.stage "spec.invariant"
let s_constraint = Tracer.stage "spec.constraint"
let s_observe = Tracer.stage "spec.observe"
let s_permute = Tracer.stage "symmetry.permute"
let s_canonical = Tracer.stage "symmetry.canonical"
let s_fingerprint = Tracer.stage "fingerprint.of_state"
let s_store_add = Tracer.stage "store.add"
let s_expand = Tracer.stage "explorer.expand"
let s_boot = Tracer.stage "impl.boot"
let s_execute = Tracer.stage "impl.execute"
let s_impl_observe = Tracer.stage "impl.observe"
let s_mask = Tracer.stage "conform.mask"
let s_check = Tracer.stage ~keep_all:true "explorer.check"
let s_shrink = Tracer.stage ~keep_all:true "shrink.run"
let s_confirm = Tracer.stage ~keep_all:true "replay.confirm"
let s_conform = Tracer.stage ~keep_all:true "conformance.run"

let spec (spec : Spec.t) : Spec.t =
  let module S = (val spec) in
  (module struct
    include S

    let next sc s = Tracer.span2 s_next S.next sc s
    let constraint_ok sc s = Tracer.span2 s_constraint S.constraint_ok sc s

    let invariants =
      List.map
        (fun (name, holds) -> (name, fun sc s -> Tracer.span2 s_invariant holds sc s))
        S.invariants

    let observe s = Tracer.span1 s_observe S.observe s
    let permute p s = Tracer.span2 s_permute S.permute p s
  end)

let sut boot scenario =
  let (sut : Conformance.sut) = Tracer.span1 s_boot boot scenario in
  { Conformance.execute = (fun ev -> Tracer.span1 s_execute sut.execute ev);
    observe = (fun () -> Tracer.span1 s_impl_observe sut.observe ()) }

let mask f v = Tracer.span1 s_mask f v

(* Stage sums the traced pass reports as the spec layer's own cost. *)
let spec_stages = [ s_next; s_invariant; s_constraint; s_observe ]
let impl_stages = [ s_boot; s_execute; s_impl_observe ]
