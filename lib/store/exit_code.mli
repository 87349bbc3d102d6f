(** Consistent process exit codes for every CLI command.

    - [ok] (0): the tool ran and found nothing — exploration exhausted or
      budget-stopped with no violation, simulation walks all clean,
      conformance rounds with no discrepancy.
    - [found] (1): the tool ran and found what it hunts — an invariant
      violation, a simulated violation, a conformance discrepancy.
    - [usage] (2): the run itself failed — unknown system/flag, bad
      arguments, unreadable run directory, resume identity mismatch.

    Scripts can therefore distinguish "checked clean" from "found a bug"
    from "did not actually check anything". *)

val ok : int
val found : int
val usage : int

val of_outcome : Sandtable.Explorer.outcome -> int
(** [Violation] → [found]; [Exhausted]/[Budget_spent] → [ok]. *)

val of_simulation : Sandtable.Simulate.aggregate -> int
(** Any violating walk → [found]. *)

val of_conformance : Sandtable.Conformance.report -> int
(** A discrepancy → [found]. *)
