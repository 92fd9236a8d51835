#!/usr/bin/env bash
# serve-smoke: end-to-end check of the `kelpie serve` TCP service on a toy
# model (EXPERIMENTS.md, "serve-smoke").
#
#   1. Generates a small FB15k-237 sample and trains a TransE model.
#   2. Starts `kelpie serve` (ephemeral port, pool of 2) and drives it with
#      `kelpie serve-client` over two concurrent connections: ping, score,
#      necessary + sufficient explains, a deadline-shed score
#      ("shed_after":0), stats, then shutdown.
#   3. Byte-compares the served score/explain responses against the one-shot
#      `kelpie score --canonical` / `kelpie explain --canonical` output —
#      the serving determinism contract (DESIGN.md §12).
#   4. Asserts the shed request came back as DeadlineExceeded and that the
#      --metrics-out snapshot the server wrote on shutdown contains the
#      kelpie_serve_* families.
#
# Usage: tools/serve_smoke.sh [path/to/kelpie]
set -euo pipefail

KELPIE="${1:-build/tools/kelpie}"
WORK="$(mktemp -d /tmp/kelpie_serve_smoke.XXXXXX)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $1" >&2
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

echo "== start kelpie serve"
"$KELPIE" serve --data "$WORK/data" --model-file "$WORK/model.bin" \
  --port 0 --pool 2 --threads 2 \
  --metrics-out "$WORK/serve_metrics.json" > "$WORK/serve.log" &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serving on [^:]*:\([0-9]*\).*/\1/p' "$WORK/serve.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server exited during startup"
  sleep 0.2
done
[ -n "$PORT" ] || fail "server did not announce a port"
echo "   serving on port $PORT"

cat > "$WORK/requests.txt" <<EOF
{"id":1,"op":"ping"}
{"id":2,"op":"score","head":"$HEAD","relation":"$REL","tail":"$TAIL"}
{"id":3,"op":"explain","head":"$HEAD","relation":"$REL","tail":"$TAIL"}
{"id":4,"op":"explain","head":"$HEAD","relation":"$REL","tail":"$TAIL","sufficient":true}
{"id":5,"op":"score","head":"$HEAD","relation":"$REL","tail":"$TAIL","shed_after":0}
{"id":6,"op":"stats"}
EOF

echo "== drive with serve-client (2 concurrent connections)"
"$KELPIE" serve-client --port "$PORT" --connections 2 \
  --in "$WORK/requests.txt" > "$WORK/responses.txt"
cat "$WORK/responses.txt"

extract() { grep "^{\"id\":$1," "$WORK/responses.txt" > "$2" \
  || fail "no response for id $1"; }

echo "== byte-compare served responses against one-shot CLI output"
extract 2 "$WORK/served_score.txt"
"$KELPIE" score --data "$WORK/data" --model-file "$WORK/model.bin" \
  --head "$HEAD" --relation "$REL" --tail "$TAIL" \
  --canonical --id 2 > "$WORK/oneshot_score.txt"
diff -u "$WORK/oneshot_score.txt" "$WORK/served_score.txt" \
  || fail "served score differs from one-shot score"

extract 3 "$WORK/served_necessary.txt"
"$KELPIE" explain --data "$WORK/data" --model-file "$WORK/model.bin" \
  --head "$HEAD" --relation "$REL" --tail "$TAIL" \
  --canonical --id 3 > "$WORK/oneshot_necessary.txt"
diff -u "$WORK/oneshot_necessary.txt" "$WORK/served_necessary.txt" \
  || fail "served necessary explain differs from one-shot"

extract 4 "$WORK/served_sufficient.txt"
"$KELPIE" explain --data "$WORK/data" --model-file "$WORK/model.bin" \
  --head "$HEAD" --relation "$REL" --tail "$TAIL" --sufficient \
  --canonical --id 4 > "$WORK/oneshot_sufficient.txt"
diff -u "$WORK/oneshot_sufficient.txt" "$WORK/served_sufficient.txt" \
  || fail "served sufficient explain differs from one-shot"

echo "== quant-shortlist golden cell: one-shot explain byte-identical with --quant-shortlist"
"$KELPIE" explain --data "$WORK/data" --model-file "$WORK/model.bin" \
  --head "$HEAD" --relation "$REL" --tail "$TAIL" \
  --canonical --id 3 --quant-shortlist > "$WORK/quant_necessary.txt"
diff -u "$WORK/oneshot_necessary.txt" "$WORK/quant_necessary.txt" \
  || fail "necessary explain differs with --quant-shortlist"
"$KELPIE" explain --data "$WORK/data" --model-file "$WORK/model.bin" \
  --head "$HEAD" --relation "$REL" --tail "$TAIL" --sufficient \
  --canonical --id 4 --quant-shortlist > "$WORK/quant_sufficient.txt"
diff -u "$WORK/oneshot_sufficient.txt" "$WORK/quant_sufficient.txt" \
  || fail "sufficient explain differs with --quant-shortlist"

echo "== assert the shed_after:0 request was deadline-shed"
extract 5 "$WORK/served_shed.txt"
grep -q '"ok":false,"code":"DeadlineExceeded"' "$WORK/served_shed.txt" \
  || fail "shed request was not DeadlineExceeded: $(cat "$WORK/served_shed.txt")"

echo "== shutdown and check the metrics snapshot"
echo '{"id":99,"op":"shutdown"}' | \
  "$KELPIE" serve-client --port "$PORT" > /dev/null
wait "$SERVE_PID" || fail "server exited non-zero"
SERVE_PID=""
[ -s "$WORK/serve_metrics.json" ] || fail "no metrics snapshot written"
grep -q 'kelpie_serve_requests_total' "$WORK/serve_metrics.json" \
  || fail "metrics snapshot lacks kelpie_serve_requests_total"

# Keep the snapshot where CI can pick it up as an artifact.
if [ -n "${SERVE_SMOKE_METRICS_OUT:-}" ]; then
  cp "$WORK/serve_metrics.json" "$SERVE_SMOKE_METRICS_OUT"
fi

echo "== quant-shortlist golden cell: served responses byte-identical too"
"$KELPIE" serve --data "$WORK/data" --model-file "$WORK/model.bin" \
  --port 0 --pool 2 --threads 2 --quant-shortlist \
  > "$WORK/serve_quant.log" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^serving on [^:]*:\([0-9]*\).*/\1/p' "$WORK/serve_quant.log")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "quant server exited during startup"
  sleep 0.2
done
[ -n "$PORT" ] || fail "quant server did not announce a port"
"$KELPIE" serve-client --port "$PORT" --connections 2 \
  --in "$WORK/requests.txt" > "$WORK/responses_quant.txt"
for id in 2 3 4; do
  grep "^{\"id\":$id," "$WORK/responses_quant.txt" > "$WORK/quant_served_$id.txt" \
    || fail "no quant-serve response for id $id"
  grep "^{\"id\":$id," "$WORK/responses.txt" > "$WORK/plain_served_$id.txt"
  diff -u "$WORK/plain_served_$id.txt" "$WORK/quant_served_$id.txt" \
    || fail "served response $id differs under --quant-shortlist"
done
echo '{"id":99,"op":"shutdown"}' | \
  "$KELPIE" serve-client --port "$PORT" > /dev/null
wait "$SERVE_PID" || fail "quant server exited non-zero"
SERVE_PID=""

echo "serve-smoke: OK"
