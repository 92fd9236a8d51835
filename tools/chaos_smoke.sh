#!/usr/bin/env bash
# chaos-smoke: fault-injection end-to-end check of the relevance cache and
# the serving layer's resilience (EXPERIMENTS.md, "chaos-smoke").
#
#   1. Generates a toy dataset, trains a TransE model, and records the
#      reference `explain --canonical` bytes with no cache.
#   2. Replays the same explain with the persistent relevance cache cold,
#      warm, and after every corruption failpoint (torn tail, bit flip,
#      stale fingerprint, crashed atomic write) — every run must produce
#      byte-identical output and exit 0: corruption is a cache miss, never
#      an error.
#   3. Inspects the corrupted files with `kelpie cache stats` and purges
#      with `kelpie cache purge` (idempotent).
#   4. Crash-safe training: a checkpointed run killed with SIGKILL at
#      seeded-random points (plus a deterministic `train.interrupt`
#      failpoint round) and resumed with `--resume` converges to a model
#      file byte-identical to an uninterrupted run; every checkpoint
#      corruption failpoint (partial write, bit flip, stale config)
#      degrades to retraining from scratch with the same bytes; SIGTERM
#      drains the in-flight epoch, flushes a final checkpoint, and the
#      resume completes byte-identically.
#   5. Incremental updates: a `kelpie update` killed with SIGKILL
#      mid-run and re-run with `--resume` over its journal converges to a
#      model byte-identical to an uninterrupted update (the journal's
#      verified prefix replays, the rest recomputes); a corrupted delta
#      file fails cleanly with a named InvalidArgument status and a
#      nonzero exit, leaving the model untouched; the relevance cache is
#      reconciled (wholesale invalidation when parameters changed).
#   6. Vocabulary mismatch: the model paired with a larger generated
#      dataset makes evaluate, score and explain exit 1 with a named
#      InvalidArgument, never an abort or a read past the entity table.
#   7. Serve resilience: health answers "ready" (and reports the
#      warm-mimics state); a pipelined shutdown+health answers "draining";
#      the server drains buffered work and exits 0 on SIGTERM; a shedding
#      server (queue depth 1) is absorbed by serve-client retries (exit 0,
#      every response ok); a dead endpoint exhausts retries into
#      per-request error lines and a nonzero exit.
#
# Usage: tools/chaos_smoke.sh [path/to/kelpie]
set -euo pipefail

KELPIE="${1:-build/tools/kelpie}"
WORK="$(mktemp -d /tmp/kelpie_chaos_smoke.XXXXXX)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "chaos-smoke: FAIL: $1" >&2
  echo "--- serve log ---" >&2
  cat "$WORK/serve.log" >&2 || true
  exit 1
}

echo "== generate + train toy model"
"$KELPIE" generate --dataset FB15k-237 --scale 0.4 --seed 7 \
  --out "$WORK/data"
"$KELPIE" train --data "$WORK/data" --model TransE --seed 42 \
  --epochs 40 --dim 32 --out "$WORK/model.bin"

HEAD=Person_8
REL=nationality
TAIL=Country_4
CACHE="$WORK/relevance.kelprc"

explain_canonical() {  # $1 = output file, extra args follow
  local out="$1"; shift
  "$KELPIE" explain --data "$WORK/data" --model-file "$WORK/model.bin" \
    --head "$HEAD" --relation "$REL" --tail "$TAIL" \
    --canonical --id 3 "$@" > "$out" \
    || fail "explain exited non-zero ($*)"
}

echo "== reference bytes (no cache)"
explain_canonical "$WORK/reference.txt"

echo "== cold cache run"
explain_canonical "$WORK/cold.txt" --relevance-cache "$CACHE"
diff -u "$WORK/reference.txt" "$WORK/cold.txt" \
  || fail "cold cache changed the explanation bytes"
[ -s "$CACHE" ] || fail "cold run did not write the cache file"

echo "== warm cache run"
explain_canonical "$WORK/warm.txt" --relevance-cache "$CACHE"
diff -u "$WORK/reference.txt" "$WORK/warm.txt" \
  || fail "warm cache changed the explanation bytes"
"$KELPIE" cache stats --file "$CACHE" > "$WORK/stats_warm.txt"
grep -Eq 'header +ok' "$WORK/stats_warm.txt" \
  || fail "warm cache header not ok: $(cat "$WORK/stats_warm.txt")"
grep -Eq 'torn tail +no' "$WORK/stats_warm.txt" \
  || fail "warm cache unexpectedly torn"

echo "== corruption matrix: every failpoint recovers to identical bytes"
# Each round: one run with the failpoint armed leaves a damaged file
# behind (the explanation itself must already be unaffected), then an
# unarmed run loads the damage, recovers, and rewrites a clean file.
for fp in cache.partial_write cache.bit_flip 'cache.stale_fingerprint:*:forever'; do
  name="${fp%%:*}"
  echo "   -- $name"
  KELPIE_FAILPOINTS="$fp" \
    explain_canonical "$WORK/inject_$name.txt" --relevance-cache "$CACHE"
  diff -u "$WORK/reference.txt" "$WORK/inject_$name.txt" \
    || fail "$name: bytes changed during the injection run"
  "$KELPIE" cache stats --file "$CACHE" > "$WORK/stats_$name.txt" \
    || fail "$name: cache stats failed on the damaged file"
  explain_canonical "$WORK/recover_$name.txt" --relevance-cache "$CACHE"
  diff -u "$WORK/reference.txt" "$WORK/recover_$name.txt" \
    || fail "$name: bytes changed after recovery"
done
grep -Eq 'torn tail +yes' "$WORK/stats_cache.partial_write.txt" \
  || fail "partial_write left no torn tail: $(cat "$WORK/stats_cache.partial_write.txt")"
grep -Eq 'corrupt +1' "$WORK/stats_cache.bit_flip.txt" \
  || fail "bit_flip left no corrupt entry: $(cat "$WORK/stats_cache.bit_flip.txt")"

echo "== crashed atomic write keeps the previous file"
BEFORE="$(wc -c < "$CACHE")"
KELPIE_FAILPOINTS=atomic_file.partial_write \
  explain_canonical "$WORK/crash.txt" --relevance-cache "$CACHE"
diff -u "$WORK/reference.txt" "$WORK/crash.txt" \
  || fail "crashed flush changed the explanation bytes"
AFTER="$(wc -c < "$CACHE")"
[ "$BEFORE" = "$AFTER" ] \
  || fail "crashed flush altered the cache file ($BEFORE -> $AFTER bytes)"

echo "== cache purge is idempotent"
"$KELPIE" cache purge --file "$CACHE" || fail "purge failed"
[ ! -e "$CACHE" ] || fail "purge left the cache file behind"
"$KELPIE" cache purge --file "$CACHE" || fail "second purge failed"

# --- crash-safe training -------------------------------------------------

# A schedule long enough that signals land mid-train; the golden bytes are
# the uninterrupted run's.
CRASH_EPOCHS=2000
CKPT="$WORK/ckpt"
train_crashable() {  # $1 = output model, extra args follow
  local out="$1"; shift
  "$KELPIE" train --data "$WORK/data" --model TransE --seed 42 \
    --epochs "$CRASH_EPOCHS" --dim 32 --out "$out" "$@"
}
train_crashable_bg() {  # $1 = log file, $2 = output model, extra args follow
  # The & lives here so TRAIN_PID is the kelpie binary itself, not a bash
  # subshell wrapping it — killing the wrapper would orphan the trainer,
  # which keeps writing checkpoints (the start_serve helper has the same
  # shape for the same reason).
  local log="$1" out="$2"; shift 2
  "$KELPIE" train --data "$WORK/data" --model TransE --seed 42 \
    --epochs "$CRASH_EPOCHS" --dim 32 --out "$out" "$@" \
    > "$log" 2>&1 &
  TRAIN_PID=$!
}

echo "== train: checkpointing changes no bytes"
train_crashable "$WORK/crash_ref.bin" \
  || fail "uninterrupted reference train failed"
train_crashable "$WORK/crash_ckpt.bin" --checkpoint "$CKPT" \
  || fail "checkpointed train failed"
cmp -s "$WORK/crash_ref.bin" "$WORK/crash_ckpt.bin" \
  || fail "checkpointed train produced different bytes"

echo "== train: SIGKILL + --resume converges byte-identically"
rm -rf "$CKPT"
# Seeded LCG: the kill times are random-looking but reproducible, so a
# failing round can be replayed.
LCG=987654321
for round in 1 2 3; do
  LCG=$(( (LCG * 1103515245 + 12345) % 2147483648 ))
  DELAY="0.$(( 100 + LCG % 700 ))"  # 0.100s .. 0.799s
  train_crashable_bg "$WORK/kill_$round.log" "$WORK/crash_out.bin" \
    --checkpoint "$CKPT" --resume
  sleep "$DELAY"
  kill -9 "$TRAIN_PID" 2>/dev/null || true
  wait "$TRAIN_PID" 2>/dev/null || true
  echo "   -- round $round: SIGKILL after ${DELAY}s"
done
train_crashable "$WORK/crash_resumed.bin" --checkpoint "$CKPT" --resume \
  || fail "final resume failed"
cmp -s "$WORK/crash_ref.bin" "$WORK/crash_resumed.bin" \
  || fail "kill-resume model differs from the uninterrupted run"

echo "== train: deterministic interrupt failpoint + --resume"
rm -rf "$CKPT"
if KELPIE_FAILPOINTS=train.interrupt:500 \
    train_crashable /dev/null --checkpoint "$CKPT" 2> /dev/null; then
  fail "train.interrupt armed but train exited 0"
fi
train_crashable "$WORK/crash_fp.bin" --checkpoint "$CKPT" --resume \
  > "$WORK/fp_resume.log" \
  || fail "resume after failpoint interrupt failed"
grep -q 'resumed from checkpoint at epoch 501' "$WORK/fp_resume.log" \
  || fail "resume did not pick up at the interrupt epoch: $(cat "$WORK/fp_resume.log")"
cmp -s "$WORK/crash_ref.bin" "$WORK/crash_fp.bin" \
  || fail "failpoint-resume model differs from the uninterrupted run"

echo "== train: checkpoint corruption degrades to scratch, same bytes"
for fp in checkpoint.partial_write checkpoint.bit_flip \
          checkpoint.stale_config; do
  echo "   -- $fp"
  rm -rf "$CKPT"
  if KELPIE_FAILPOINTS="train.interrupt:500,$fp:*:forever" \
      train_crashable /dev/null --checkpoint "$CKPT" 2> /dev/null; then
    fail "$fp: interrupt armed but train exited 0"
  fi
  train_crashable "$WORK/crash_$fp.bin" --checkpoint "$CKPT" --resume \
    > "$WORK/corrupt_$fp.log" \
    || fail "$fp: resume over a damaged checkpoint exited non-zero"
  grep -q 'trained from scratch' "$WORK/corrupt_$fp.log" \
    || fail "$fp: damaged checkpoint was not degraded to scratch: $(cat "$WORK/corrupt_$fp.log")"
  cmp -s "$WORK/crash_ref.bin" "$WORK/crash_$fp.bin" \
    || fail "$fp: degraded run produced different bytes"
done

echo "== train: SIGTERM drains, checkpoints, resumes byte-identically"
rm -rf "$CKPT"
train_crashable_bg "$WORK/drain_train.log" "$WORK/drain_out.bin" \
  --checkpoint "$CKPT"
sleep 0.4
kill -TERM "$TRAIN_PID"
if wait "$TRAIN_PID"; then
  fail "drained train exited 0 (expected the Cancelled exit)"
fi
grep -q 'completeness: Cancelled' "$WORK/drain_train.log" \
  || fail "drained train did not report Cancelled: $(cat "$WORK/drain_train.log")"
[ -s "$CKPT/train.ckpt" ] || fail "drained train left no checkpoint"
train_crashable "$WORK/drain_resumed.bin" --checkpoint "$CKPT" --resume \
  || fail "resume after drain failed"
cmp -s "$WORK/crash_ref.bin" "$WORK/drain_resumed.bin" \
  || fail "drain-resume model differs from the uninterrupted run"

DELTA="$WORK/delta.tsv"
UPD_JOURNAL="$WORK/update.jnl"
run_update() {  # $1 = output model, extra args follow
  local out="$1"; shift
  "$KELPIE" update --data "$WORK/data" --model-file "$WORK/model.bin" \
    --delta "$DELTA" --seed 5 --out "$out" "$@"
}

echo "== update: reference incremental update"
# Remove the first two training facts verbatim; the TSV fields carry over.
head -2 "$WORK/data/train.txt" | sed 's/^/remove\t/' > "$DELTA"
run_update "$WORK/updated_ref.bin" > "$WORK/update_ref.log" \
  || fail "reference update failed"
grep -q 'applied' "$WORK/update_ref.log" \
  || fail "update did not report the applied delta: $(cat "$WORK/update_ref.log")"

echo "== update: SIGKILL mid-update + --resume converges byte-identically"
run_update "$WORK/updated_kill.bin" --journal "$UPD_JOURNAL" \
  > "$WORK/update_kill.log" 2>&1 &
UPD_PID=$!
sleep 0.05
kill -9 "$UPD_PID" 2>/dev/null || true
wait "$UPD_PID" 2>/dev/null || true
# A journal means the kill landed mid-run: resume replays its verified
# prefix. No journal means the run already finished (and spent it) —
# rerunning recomputes everything; order-independence makes both paths
# land on the same bytes.
RESUME_FLAG=""
[ -f "$UPD_JOURNAL" ] && RESUME_FLAG="--resume"
run_update "$WORK/updated_kill.bin" --journal "$UPD_JOURNAL" $RESUME_FLAG \
  > "$WORK/update_resume.log" \
  || fail "update resume after SIGKILL failed"
cmp -s "$WORK/updated_ref.bin" "$WORK/updated_kill.bin" \
  || fail "kill-resume update differs from the uninterrupted update"
[ -f "$UPD_JOURNAL" ] && fail "completed update left its journal behind"

echo "== update: corrupted delta fails cleanly with a named status"
MODEL_SUM="$(cksum "$WORK/model.bin")"
printf 'frobnicate\tPerson_8\tnationality\tCountry_4\n' > "$WORK/bad_delta.tsv"
if "$KELPIE" update --data "$WORK/data" --model-file "$WORK/model.bin" \
    --delta "$WORK/bad_delta.tsv" --out "$WORK/bad_out.bin" \
    2> "$WORK/bad_delta.err"; then
  fail "corrupted delta exited 0"
fi
grep -q 'InvalidArgument' "$WORK/bad_delta.err" \
  || fail "corrupted delta did not fail with InvalidArgument: $(cat "$WORK/bad_delta.err")"
head -c 64 /dev/urandom > "$WORK/bad_delta2.tsv"
if "$KELPIE" update --data "$WORK/data" --model-file "$WORK/model.bin" \
    --delta "$WORK/bad_delta2.tsv" --out "$WORK/bad_out.bin" \
    2> "$WORK/bad_delta2.err"; then
  fail "binary-garbage delta exited 0"
fi
grep -q 'InvalidArgument' "$WORK/bad_delta2.err" \
  || fail "binary-garbage delta did not fail with InvalidArgument: $(cat "$WORK/bad_delta2.err")"
[ -f "$WORK/bad_out.bin" ] && fail "failed update wrote an output model"
[ "$MODEL_SUM" = "$(cksum "$WORK/model.bin")" ] \
  || fail "failed update modified the input model"

echo "== update: relevance cache is reconciled"
# Warm a fresh cache against the pre-update model, then reconcile it
# through the update (the params change, so it invalidates wholesale).
explain_canonical "$WORK/update_cache_warm.txt" \
  --relevance-cache "$WORK/update_cache.kelprc"
[ -s "$WORK/update_cache.kelprc" ] || fail "warm-up did not write the cache"
run_update "$WORK/updated_cache.bin" \
  --relevance-cache "$WORK/update_cache.kelprc" \
  > "$WORK/update_cache.log" \
  || fail "update with --relevance-cache failed"
grep -q 'relevance cache:' "$WORK/update_cache.log" \
  || fail "update did not report cache reconciliation: $(cat "$WORK/update_cache.log")"
cmp -s "$WORK/updated_ref.bin" "$WORK/updated_cache.bin" \
  || fail "cache reconciliation changed the updated model bytes"

echo "== a model paired with another vocabulary fails cleanly"
"$KELPIE" generate --dataset FB15k-237 --scale 0.6 --seed 7 \
  --out "$WORK/data_big" > /dev/null
for verb in evaluate score explain; do
  # evaluate ranks the whole test split and takes no query flags.
  if [ "$verb" = evaluate ]; then
    QUERY=()
  else
    QUERY=(--head "$HEAD" --relation "$REL" --tail "$TAIL")
  fi
  set +e
  "$KELPIE" "$verb" --data "$WORK/data_big" --model-file "$WORK/model.bin" \
    ${QUERY[@]+"${QUERY[@]}"} > /dev/null 2> "$WORK/mismatch_$verb.err"
  RC=$?
  set -e
  [ "$RC" = "1" ] \
    || fail "$verb with a mismatched vocabulary exited $RC, want 1: $(cat "$WORK/mismatch_$verb.err")"
  grep -q 'InvalidArgument: model/dataset vocabulary mismatch' \
    "$WORK/mismatch_$verb.err" \
    || fail "$verb did not name the mismatch: $(cat "$WORK/mismatch_$verb.err")"
done

start_serve() {  # extra serve flags follow
  : > "$WORK/serve.log"
  "$KELPIE" serve --data "$WORK/data" --model-file "$WORK/model.bin" \
    --port 0 "$@" > "$WORK/serve.log" &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^serving on [^:]*:\([0-9]*\).*/\1/p' "$WORK/serve.log")"
    [ -n "$PORT" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.2
  done
  [ -n "$PORT" ] || fail "server did not announce a port"
}

echo "== serve: health, drain via shutdown, warm cache across requests"
start_serve --pool 2 --threads 2 --relevance-cache "$CACHE"
echo '{"id":1,"op":"health"}' | \
  "$KELPIE" serve-client --port "$PORT" > "$WORK/health.txt"
grep -q '"state":"ready"' "$WORK/health.txt" \
  || fail "health did not answer ready: $(cat "$WORK/health.txt")"
grep -q '"warm_mimics":false' "$WORK/health.txt" \
  || fail "health did not report the (cold) warm-mimics state: $(cat "$WORK/health.txt")"
cat > "$WORK/explains.txt" <<EOF
{"id":2,"op":"explain","head":"$HEAD","relation":"$REL","tail":"$TAIL"}
{"id":3,"op":"explain","head":"$HEAD","relation":"$REL","tail":"$TAIL"}
EOF
"$KELPIE" serve-client --port "$PORT" --in "$WORK/explains.txt" \
  > "$WORK/served_explains.txt"
# Both served lines (cold then cache-warm) must match the one-shot bytes
# (the reference carries id 3; normalize the served ids before diffing).
sed 's/"id":2/"id":3/' "$WORK/served_explains.txt" | sort -u \
  > "$WORK/served_unique.txt"
[ "$(wc -l < "$WORK/served_unique.txt")" = "1" ] \
  || fail "repeated served explains differ from each other"
diff -u "$WORK/reference.txt" "$WORK/served_unique.txt" \
  || fail "served explain differs from one-shot bytes"
# Pipelined shutdown+health on one connection: the drain finishes buffered
# lines, so the health line gets an answer — and it must say draining.
printf '{"id":8,"op":"shutdown"}\n{"id":9,"op":"health"}\n' | \
  "$KELPIE" serve-client --port "$PORT" > "$WORK/drain.txt"
grep -q '"id":9.*"state":"draining"' "$WORK/drain.txt" \
  || fail "health during drain did not answer draining: $(cat "$WORK/drain.txt")"
wait "$SERVE_PID" || fail "server exited non-zero after shutdown drain"
SERVE_PID=""
[ -s "$CACHE" ] || fail "server did not flush the relevance cache on stop"

echo "== serve: warm-mimics mode is reported by health"
start_serve --pool 1 --warm-mimics
echo '{"id":1,"op":"health"}' | \
  "$KELPIE" serve-client --port "$PORT" > "$WORK/health_warm.txt"
grep -q '"warm_mimics":true' "$WORK/health_warm.txt" \
  || fail "health did not report warm mimics: $(cat "$WORK/health_warm.txt")"
echo '{"id":2,"op":"shutdown"}' | \
  "$KELPIE" serve-client --port "$PORT" > /dev/null
wait "$SERVE_PID" || fail "warm server exited non-zero after shutdown"
SERVE_PID=""

echo "== serve: SIGTERM drains and exits 0"
start_serve --pool 1
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "server exited non-zero on SIGTERM"
SERVE_PID=""
grep -q 'serve stopped' "$WORK/serve.log" \
  || fail "server did not report a clean stop"

echo "== serve-client: retries absorb admission shedding"
start_serve --pool 1 --max-queue 1 --threads 1
: > "$WORK/burst.txt"
for i in $(seq 1 16); do
  echo "{\"id\":$i,\"op\":\"explain\",\"head\":\"$HEAD\",\"relation\":\"$REL\",\"tail\":\"$TAIL\"}" \
    >> "$WORK/burst.txt"
done
"$KELPIE" serve-client --port "$PORT" --connections 8 --retries 10 \
  --retry-backoff 0.02 --in "$WORK/burst.txt" \
  > "$WORK/burst_responses.txt" 2> "$WORK/burst_err.txt" \
  || fail "retrying client exited non-zero: $(cat "$WORK/burst_err.txt")"
[ "$(grep -c '"ok":true' "$WORK/burst_responses.txt")" = "16" ] \
  || fail "not every burst request succeeded after retries"
echo '{"id":99,"op":"shutdown"}' | \
  "$KELPIE" serve-client --port "$PORT" > /dev/null
wait "$SERVE_PID" || fail "server exited non-zero"
SERVE_PID=""

echo "== serve-client: a dead endpoint exhausts retries into error lines"
set +e
echo '{"id":1,"op":"ping"}' | \
  "$KELPIE" serve-client --port "$PORT" --retries 1 --retry-backoff 0.01 \
  > "$WORK/dead.txt" 2> "$WORK/dead_err.txt"
DEAD_RC=$?
set -e
[ "$DEAD_RC" -ne 0 ] || fail "client exited 0 against a dead endpoint"
grep -q '"id":1.*"ok":false.*"code":"Unavailable"' "$WORK/dead.txt" \
  || fail "no per-request error line for the dead endpoint: $(cat "$WORK/dead.txt")"

echo "chaos-smoke: OK"
