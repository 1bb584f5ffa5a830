package experiments

// Experiments whose figures the benchmark/ harness measures under its
// stated method. Each paper claim they make is asserted as an exact
// count by a test in the package that owns the mechanism.

func init() {
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
