let () =
  Alcotest.run "sandtable"
    [ Test_fp.suite;
      Test_value.suite;
      Test_labels.suite;
      Test_log.suite;
      Test_codec.suite;
      Test_spec_net.suite;
      Test_symmetry.suite;
      Test_explorer.suite;
      Test_simulate.suite;
      Test_linearize.suite;
      Test_trace.suite;
      Test_engine.suite;
      Test_liveness.suite;
      Test_protocol.suite;
      Test_script.suite;
      Test_systems.suite;
      Test_conformance.suite;
      Test_par.suite;
      Test_ws.suite;
      Test_store.suite;
      Test_obs.suite;
      Test_shrink.suite;
      Test_rendered.suite;
      Test_reference.suite;
      Test_faults.suite;
      Test_registry.suite;
      Test_cli.suite;
      Test_bugs.suite ]
