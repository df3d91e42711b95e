#!/bin/bash
cd /root/repo
FAILED=""

ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt
[ "${PIPESTATUS[0]}" -eq 0 ] || FAILED="$FAILED ctest"

# ThreadSanitizer smoke run of the thread-pool / determinism tests: builds
# only test_parallel in a separate build tree with -DDOSEOPT_SANITIZE=thread
# and fails loudly on any reported race.
{
  echo ""
  echo "################ tsan: test_parallel ################"
  cmake -B build-tsan -S . -DDOSEOPT_SANITIZE=thread >/dev/null \
    && cmake --build build-tsan --target test_parallel -j "$(nproc)" >/dev/null \
    && timeout 1200 ./build-tsan/tests/test_parallel
  rc=$?
  echo "(tsan exit: $rc)"
  echo "$rc" > /tmp/doseopt_tsan_rc
} 2>&1 | tee -a /root/repo/test_output.txt
[ "$(cat /tmp/doseopt_tsan_rc)" -eq 0 ] || FAILED="$FAILED tsan:test_parallel"

# Fault sweep: re-run the fault/recovery suite once per registered fault
# point, each armed to fire once through $DOSEOPT_FAULTS.  Every run must
# recover to bit-identical results (the suite asserts it); the point list
# is kept honest by FaultRegistry.RegisteredPointsMatchTheSweepManifest.
FAULT_POINTS="serve.accept serve.read serve.write serve.frame serve.job serde.snapshot_write serde.snapshot_read qp.admm_diverge qp.kkt_reject dmopt.qcp_infeasible ssta.nan sta.batch_nan fleet.cache_corrupt"
: > /tmp/doseopt_fault_failures
{
  for p in $FAULT_POINTS; do
    echo ""
    echo "################ fault sweep: $p:once ################"
    DOSEOPT_FAULTS="$p:once" timeout 1200 ./build/tests/test_faults 2>&1 | tail -3
    rc=${PIPESTATUS[0]}
    echo "(exit: $rc)"
    [ "$rc" -eq 0 ] || echo "fault:$p" >> /tmp/doseopt_fault_failures
  done
  # The multi-process fleet points need real router + worker processes:
  # route_drop fires in the router's forward path, worker_crash inside a
  # worker armed via --worker-faults, worker_stall in the router's forward
  # leg (rescued by a hedge).  test_fleet recovers all three to
  # bit-identical results.
  for p in fleet.route_drop fleet.worker_crash fleet.worker_stall; do
    echo ""
    echo "################ fault sweep: $p:once (test_fleet) ################"
    DOSEOPT_FAULTS="$p:once" timeout 1200 ./build/tests/test_fleet 2>&1 | tail -3
    rc=${PIPESTATUS[0]}
    echo "(exit: $rc)"
    [ "$rc" -eq 0 ] || echo "fault:$p" >> /tmp/doseopt_fault_failures
  done
  # The campaign journal point fires inside the write-ahead journal's
  # append path; test_campaign's sweep consumer recovers it to a
  # bit-identical campaign artifact.
  for p in campaign.journal_torn; do
    echo ""
    echo "################ fault sweep: $p:once (test_campaign) ################"
    DOSEOPT_FAULTS="$p:once" timeout 1200 ./build/tests/test_campaign 2>&1 | tail -3
    rc=${PIPESTATUS[0]}
    echo "(exit: $rc)"
    [ "$rc" -eq 0 ] || echo "fault:$p" >> /tmp/doseopt_fault_failures
  done
} 2>&1 | tee -a /root/repo/test_output.txt
while read -r name; do FAILED="$FAILED $name"; done < /tmp/doseopt_fault_failures

# Fleet stage: replay a mixed cold/warm/memoized trace against sharded
# fleets (1/2/4 workers), SIGKILL a worker mid-run, and require every
# routed reply to be bit-identical to direct flow:: references.  Emits
# BENCH_fleet.json (latency percentiles, QPS, shed rate, respawns, cache
# hit rate per worker count).
{
  echo ""
  echo "################ fleet: doseopt_loadgen ################"
  timeout 2400 stdbuf -oL ./build/tools/doseopt_loadgen \
    --out /root/repo/BENCH_fleet.json
  rc=$?
  echo "(fleet exit: $rc)"
  echo "$rc" > /tmp/doseopt_fleet_rc
} 2>&1 | tee -a /root/repo/test_output.txt
[ "$(cat /tmp/doseopt_fleet_rc)" -eq 0 ] || FAILED="$FAILED fleet:loadgen"

# Campaign smoke: run a small durable campaign, SIGKILL the driver right
# after an Intent hits the journal (exit 137), resume it, and require the
# final artifact to be bit-identical to an uninterrupted run.
{
  echo ""
  echo "################ campaign: crash + resume smoke ################"
  rm -rf /tmp/doseopt_ci_campaign
  DOSEOPT_FAST=1 timeout 1200 ./build/tools/doseopt_campaign \
    --runtime-dir /tmp/doseopt_ci_campaign/full
  full_rc=$?
  DOSEOPT_FAST=1 timeout 1200 ./build/tools/doseopt_campaign \
    --runtime-dir /tmp/doseopt_ci_campaign/killed --kill-after-intent 2
  kill_rc=$?
  DOSEOPT_FAST=1 timeout 1200 ./build/tools/doseopt_campaign \
    --runtime-dir /tmp/doseopt_ci_campaign/killed --resume \
    --report /tmp/doseopt_ci_campaign/resume_report.json
  resume_rc=$?
  cmp /tmp/doseopt_ci_campaign/full/artifact.json \
      /tmp/doseopt_ci_campaign/killed/artifact.json
  cmp_rc=$?
  echo "(full: $full_rc, kill: $kill_rc, resume: $resume_rc, cmp: $cmp_rc)"
  if [ "$full_rc" -eq 0 ] && [ "$kill_rc" -eq 137 ] \
      && [ "$resume_rc" -eq 0 ] && [ "$cmp_rc" -eq 0 ]; then
    echo 0 > /tmp/doseopt_campaign_rc
  else
    echo 1 > /tmp/doseopt_campaign_rc
  fi
  rm -rf /tmp/doseopt_ci_campaign
} 2>&1 | tee -a /root/repo/test_output.txt
[ "$(cat /tmp/doseopt_campaign_rc)" -eq 0 ] || FAILED="$FAILED campaign:smoke"

# Chaos soak: seeded fault schedule (torn journal appends, route drops,
# worker stalls + kills, driver stop/resume) over repeated campaigns for a
# bounded wall-clock, asserting exactly-once journals and bit-identical
# artifacts throughout.  Emits BENCH_campaign.json (epoch counts, resume
# latency, hedged-vs-plain p99 under injected stalls).
{
  echo ""
  echo "################ campaign: chaos soak ################"
  DOSEOPT_FAST=1 timeout 1200 stdbuf -oL ./build/tools/doseopt_chaos \
    --seconds 60 --out /root/repo/BENCH_campaign.json
  rc=$?
  echo "(chaos exit: $rc)"
  echo "$rc" > /tmp/doseopt_chaos_rc
} 2>&1 | tee -a /root/repo/test_output.txt
[ "$(cat /tmp/doseopt_chaos_rc)" -eq 0 ] || FAILED="$FAILED campaign:chaos"

BENCHES="bench_fig3_fig4 bench_fig5_fig6 bench_table1_table7 bench_table2_table3 bench_fit_residuals bench_wafer bench_yield bench_ssta bench_table4 bench_table8_fig10 bench_table6 bench_table5 bench_ablation bench_qp bench_serve bench_micro"
: > /tmp/doseopt_bench_failures
{
  for name in $BENCHES; do
    b=build/bench/$name
    echo ""
    echo "################ $b ################"
    timeout 1200 stdbuf -oL "$b" 2>&1
    rc=$?
    echo "(exit: $rc)"
    [ "$rc" -eq 0 ] || echo "$name" >> /tmp/doseopt_bench_failures
  done
} 2>&1 | tee /root/repo/bench_output.txt
while read -r name; do FAILED="$FAILED $name"; done < /tmp/doseopt_bench_failures

if [ -n "$FAILED" ]; then
  echo "ALL_DONE (FAILURES:$FAILED)"
  exit 1
fi
echo "ALL_DONE (all stages passed)"
