(** The invariant auditor: deep consistency checks that may be run at
    any event boundary of a simulation, over any of the three log
    managers.

    The auditor proves, from read-only snapshots ({!El_core.El_manager.audit_view}
    and friends) plus the managers' own structural checks, that the
    bookkeeping every algorithm in the paper depends on actually
    holds mid-run:

    - {b ledger/LOT/LTT consistency} — delegated to
      {!El_core.Ledger.check_invariants} through the managers;
    - {b every non-garbage record has a live cell} — the number of
      cells reachable from the LOT/LTT equals the total membership of
      the generations' cell lists, so no cell is orphaned on either
      side;
    - {b generation FIFO ordering} — under the paper's base ([Youngest])
      placement, the cells of every non-last generation appear in
      non-decreasing ring order from head to tail (recirculation
      staging legitimately breaks this in the last generation, and
      lifetime-hint placement interleaves direct entries with
      forwarded ones, so both are exempt);
    - {b block-space accounting} — [tail = head + occupied (mod size)],
      occupancy within bounds and equal to the metrics gauge, every
      cell's slot inside the occupied region;
    - {b stable-version monotonicity} — the stable database never runs
      ahead of the durably committed reference state.

    All checks raise {!Audit_failure} with a descriptive message; an
    [Assert_failure] escaping a manager's own [check_invariants] is
    converted into one. *)

exception Audit_failure of string

val audit_el : El_core.El_manager.t -> unit
val audit_fw : El_core.Fw_manager.t -> unit
val audit_hybrid : El_core.Hybrid_manager.t -> unit
