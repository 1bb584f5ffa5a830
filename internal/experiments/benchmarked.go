package experiments

// Experiments whose figures the benchmark/ harness measures under its
// stated method. Each paper claim they make is asserted as an exact
// count by a test in the package that owns the mechanism.

func init() {
	registerPointer("E12", "Durability tuning: commit latency per durability level",
		"§3.1 fn 6, §5", `measured by benchmark/:
  bash benchmark/run.sh --workload commit_quorum_wan --trace 1
  figures: rung wal.append_sync (one commit with its own fsync, the dump-before-commit end)
           against rung se.txn_write (the same commit in RAM only),
           wal.fsyncs_per_commit (fsyncs the durable path pays per commit)
claims, asserted in internal/wal by the log's fsync and append counts:
  dump-before-commit pays one fsync per commit and loses nothing: TestSyncEveryCommitLosesNothing (syncs == appends)
  periodic save issues no fsync per commit and loses the tail:    TestUnsyncedTailLost (syncs == 1 after one Sync)
  replication-axis durability levels are E4's and E23's`)

	registerPointer("E13", "10 ms response-time target under busy-hour load",
		"§2.3 req 4, §3.3", `measured by benchmark/:
  bash benchmark/run.sh --workload session_uniform --trace 1
  bash benchmark/run.sh --workload ldap_serial
  figures: p99_us on session_uniform and ldap_serial against the 10 ms target,
           rungs locator.lookup and se.txn_read (the paper's "excluding network" query:
           data location plus the SE transaction), failed = 0 (every answer read back)
claims, asserted per procedure in internal/fe and by E15:
  each network procedure is served end to end: TestLocationUpdate, TestAuthenticateAdvancesSQN,
                                                TestMOCallBarring, TestMTCallForwarding,
                                                TestSMSDeliver, TestIMSRegister
  1-3 LDAP operations per mobile procedure, 5-6 per IMS one: E15 (TestE15ProcedureOps)`)

	registerPointer("E17", "Engine concurrency: lock-striped read/write scaling; identity index vs full scan",
		"§2.3, §3.4 (perf extension)", `measured by benchmark/:
  bash benchmark/run.sh --workload session_uniform
  bash benchmark/run.sh --workload ldap_pipelined
  figures: ops_per_s on session_uniform (two in-process clients) and ldap_pipelined
           (both cores saturated through the LDAP front door)
claims, asserted in internal/store and internal/se:
  concurrent commits keep one CSN total order and a consistent identity index: TestConcurrentEngineConsistency
  concurrent commits serialize, none lost:                                     TestConcurrentCommitsSerialize
  the identity index answers FindReq exactly as the full scan does:            TestFindIndexedMatchesLegacyScan`)

	registerPointer("E18", "Group commit: durable commit throughput vs concurrency × WAL mode",
		"§3.1 fn 6 (perf extension)", `measured by benchmark/:
  bash benchmark/run.sh --workload commit_quorum_wan --trace 1
  figures: wal.fsyncs_per_commit (the group-commit amortization),
           rung wal.append_sync (wal.append_sync_ns, one durable append)
claims, asserted in internal/wal:
  concurrent durable commits share fsyncs:  TestGroupCommitConcurrentDurable (fsyncs < appends)
  an acknowledged commit survives a crash:  TestGroupCommitConcurrentDurable, TestCrashMidCohortProperty,
                                            TestSyncEveryCommitLosesNothing`)

	registerPointer("E23", "Quorum commits over WAN profiles: majority latency, not slowest-replica latency",
		"§3.3.1, §4.2, §5", `measured by benchmark/:
  bash benchmark/run.sh --workload commit_quorum_wan --trace 1
  figures: commit_quorum_wan p50_us and p99_us with --trace 0 (majority commits, 550 µs near and 3.3 ms far RTT),
           rung replication.quorum_commit (replication.quorum_commit_ns)
claims, asserted in internal/replication by the peers' acknowledged CSNs when Commit returns:
  quorum waits for the near peer, not the far one:   TestQuorumMajorityPaysMedianNotMax
  sync-all waits for every peer:                     TestQuorumSyncAllWaitsForEveryPeer
  async waits for no peer:                           TestQuorumAsyncWaitsForNothing
  one replica down: quorum commits, sync-all refuses: TestQuorumLiveWithReplicaDown`)
}
