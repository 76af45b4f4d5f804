(* Entry point: every module contributes a list of named suites. *)

let () =
  Alcotest.run "e2ebatch"
    (Test_sim.suite @ Test_queue_state.suite @ Test_core.suite @ Test_exchange.suite @ Test_estimation.suite
   @ Test_tcp.suite @ Test_socket.suite @ Test_kv.suite @ Test_integration.suite
   @ Test_offline.suite @ Test_fuzz.suite @ Test_loadgen.suite @ Test_reliability.suite @ Test_report.suite @ Test_trace.suite @ Test_teardown.suite @ Test_par.suite @ Test_observe.suite @ Test_span.suite @ Test_fault.suite
   @ Test_scenario.suite @ Test_realism.suite @ Test_ledger.suite
   @ Test_churn.suite @ Test_shard.suite @ Test_identity.suite @ Test_monitor.suite @ Test_invariants.suite)
