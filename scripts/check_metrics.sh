#!/usr/bin/env bash
# Smoke-checks the serve observability surface end to end with no
# dependencies beyond bash + awk: starts `vist5_cli serve` on an ephemeral
# port, pushes a few generation requests through the line protocol
# (including a warm speculative request against the same-seed demo draft,
# a spec+beam mode conflict that must be rejected at admission, and a
# "stream": true request whose token lines precede the final response), scrapes
# GET /metrics and GET /healthz over plain /dev/tcp, validates the
# Prometheus exposition with a self-contained awk checker (cumulative
# buckets monotone, +Inf bucket == _count, serve histograms populated),
# exercises POST /admin/drain + /admin/resume, reloads a missing checkpoint
# through POST /admin/reload (500, and serving continues), and shuts the
# server down.
#
# Usage: check_metrics.sh [path-to-vist5_cli]   (default: build/examples/vist5_cli)
set -u

CLI="${1:-build/examples/vist5_cli}"
if [ ! -x "$CLI" ]; then
  echo "check_metrics: $CLI not found or not executable" >&2
  exit 1
fi

WORK="$(mktemp -d /tmp/vist5_check_metrics.XXXXXX)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "check_metrics: FAIL — $1" >&2
  exit 1
}

# --- start the server and learn its port from stdout ------------------------
# Prefix cache on (64 MiB) so the warm-hit run below populates the
# vist5_serve_prefix_cache_* series (docs/SERVING.md), and the same-seed
# demo draft loaded so a "draft": k request exercises the speculative path
# and populates the vist5_spec_* series (docs/SPECULATIVE.md).
"$CLI" serve --port 0 --max-batch 4 --prefix-cache-bytes 67108864 \
  --spec-demo-draft 1 \
  >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/serve.out" | head -1)"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early: $(cat "$WORK/serve.err")"
  sleep 0.2
done
[ -n "$PORT" ] && [ "$PORT" -gt 0 ] || fail "could not determine server port"
echo "check_metrics: server up on port $PORT (pid $SERVER_PID)"

# --- tiny /dev/tcp clients --------------------------------------------------
# One line-protocol request; prints the response line.
line_request() {
  local payload="$1"
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect failed"
  printf '%s\n' "$payload" >&3
  local reply
  IFS= read -r reply <&3
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
}

# One HTTP exchange; prints status code on line 1, then the body.
http_request() {
  local method="$1" target="$2" body="${3:-}"
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect failed"
  if [ -n "$body" ]; then
    printf '%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s' \
      "$method" "$target" "${#body}" "$body" >&3
  else
    printf '%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' \
      "$method" "$target" >&3
  fi
  awk 'NR==1 {print $2; next} blank {print} /^\r?$/ {blank=1}' <&3
  exec 3<&- 3>&-
}

# --- drive traffic so the serve histograms have samples ---------------------
for i in 1 2 3 4; do
  reply="$(line_request "{\"id\":\"s$i\",\"tokens\":[2,3,$((3 + i))],\"max_len\":8}")"
  case "$reply" in
    *'"status":"ok"'*) ;;
    *) fail "generation request $i did not return ok: $reply" ;;
  esac
done
echo "check_metrics: 4 generation requests ok"

# Warm-hit pair: the same token sequence twice. The first request inserts
# its encoder block into the prefix cache, the second must hit it.
for i in 1 2; do
  reply="$(line_request "{\"id\":\"warm$i\",\"tokens\":[2,3,4,5,6],\"max_len\":8}")"
  case "$reply" in
    *'"status":"ok"'*) ;;
    *) fail "warm-hit request $i did not return ok: $reply" ;;
  esac
done
echo "check_metrics: warm-hit request pair ok"

# Speculative request against the demo draft (same weights as the base, so
# every proposal is accepted) — populates the spec/* counters scraped below.
reply="$(line_request '{"id":"spec1","tokens":[2,3,4,5,6],"max_len":8,"draft":4}')"
case "$reply" in
  *'"status":"ok"'*) ;;
  *) fail "speculative request did not return ok: $reply" ;;
esac
# Mode conflict: speculative + beam must be rejected at admission with a
# clear error, not silently decoded plain (docs/SPECULATIVE.md).
reply="$(line_request '{"id":"spec2","tokens":[2,3,4],"max_len":8,"draft":4,"beam":2}')"
case "$reply" in
  *'"status":"error"'*'greedy-only'*) ;;
  *) fail "speculative+beam request was not rejected with a greedy-only error: $reply" ;;
esac
echo "check_metrics: speculative request ok, spec+beam rejected at admission"

# Streaming request: token lines {"id","token","seq"} precede the final
# response line (docs/SERVING.md). Read until the "status" line, counting
# token lines along the way — at least one must arrive before the final.
exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect failed"
printf '%s\n' '{"id":"st1","tokens":[2,3,4,5,6],"max_len":8,"stream":true}' >&3
STREAM_TOKENS=0
STREAM_FINAL=""
while IFS= read -r reply <&3; do
  case "$reply" in
    *'"status"'*) STREAM_FINAL="$reply"; break ;;
    *'"token"'*) STREAM_TOKENS=$((STREAM_TOKENS + 1)) ;;
  esac
done
exec 3<&- 3>&-
[ "$STREAM_TOKENS" -ge 1 ] || fail "streaming request produced no token lines"
case "$STREAM_FINAL" in
  *'"status":"ok"'*) ;;
  *) fail "streaming request did not end with an ok response: $STREAM_FINAL" ;;
esac
echo "check_metrics: streaming request ok ($STREAM_TOKENS token lines before the final response)"

# --- scrape /metrics and validate the exposition ----------------------------
http_request GET /metrics >"$WORK/metrics.txt"
CODE="$(head -1 "$WORK/metrics.txt")"
[ "$CODE" = "200" ] || fail "GET /metrics returned $CODE"

awk '
  NR == 1 { next }                       # status-code line from http_request
  /^# TYPE / { type[$3] = $4; next }
  /_bucket\{le="/ {
    name = $1; sub(/_bucket\{.*/, "", name)
    if ($NF + 0 < last[name] + 0) {
      printf "non-monotone buckets in %s (%s after %s)\n", name, $NF, last[name]
      bad = 1
    }
    last[name] = $NF
    if (index($0, "le=\"+Inf\"") > 0) inf[name] = $NF
    next
  }
  /_count / { count[$1] = $2; next }
  { value[$1] = $2 }
  END {
    if (!bad && length(inf) == 0) { print "no histograms found"; bad = 1 }
    for (name in inf) {
      if (count[name "_count"] != inf[name]) {
        printf "%s: +Inf bucket %s != _count %s\n", name, inf[name], count[name "_count"]
        bad = 1
      }
    }
    exit bad
  }
' "$WORK/metrics.txt" || fail "exposition validation failed"

for metric in vist5_serve_requests_total vist5_serve_ttft_ms_count \
              vist5_serve_queue_wait_ms_count vist5_serve_latency_ms_count; do
  val="$(awk -v m="$metric" '$1 == m {print $2}' "$WORK/metrics.txt" | head -1)"
  [ -n "$val" ] || fail "$metric missing from /metrics"
  [ "${val%.*}" -ge 4 ] 2>/dev/null || fail "$metric = $val, expected >= 4"
done
echo "check_metrics: /metrics exposition valid (serve histograms populated)"

# --- prefix-cache series after the warm-hit run ------------------------------
for metric in vist5_serve_prefix_cache_misses_total \
              vist5_serve_prefix_cache_insertions_total \
              vist5_serve_prefix_cache_reuse_tokens_total \
              vist5_serve_prefix_cache_bytes \
              vist5_serve_prefix_cache_entries; do
  val="$(awk -v m="$metric" '$1 == m {print $2}' "$WORK/metrics.txt" | head -1)"
  [ -n "$val" ] || fail "$metric missing from /metrics"
done
hits="$(awk '$1 == "vist5_serve_prefix_cache_hits_total" {print $2}' "$WORK/metrics.txt" | head -1)"
[ -n "$hits" ] || fail "vist5_serve_prefix_cache_hits_total missing from /metrics"
[ "${hits%.*}" -ge 1 ] 2>/dev/null || fail "vist5_serve_prefix_cache_hits_total = $hits, expected >= 1 after the warm-hit pair"
echo "check_metrics: prefix-cache series present, warm hit recorded (hits=$hits)"

# --- speculative series after the warm spec request --------------------------
for metric in vist5_spec_proposed_total vist5_spec_steps_total \
              vist5_spec_requests_total vist5_spec_acceptance_rate_count \
              vist5_spec_tokens_per_step_count; do
  val="$(awk -v m="$metric" '$1 == m {print $2}' "$WORK/metrics.txt" | head -1)"
  [ -n "$val" ] || fail "$metric missing from /metrics"
done
accepted="$(awk '$1 == "vist5_spec_accepted_total" {print $2}' "$WORK/metrics.txt" | head -1)"
[ -n "$accepted" ] || fail "vist5_spec_accepted_total missing from /metrics"
[ "${accepted%.*}" -ge 1 ] 2>/dev/null || fail "vist5_spec_accepted_total = $accepted, expected >= 1 with the same-weights demo draft"
echo "check_metrics: spec series present, acceptance recorded (accepted=$accepted)"

# --- streaming / event-loop series after the streamed request -----------------
for metric in vist5_serve_stream_tokens_total \
              vist5_serve_conn_slow_closed_total; do
  val="$(awk -v m="$metric" '$1 == m {print $2}' "$WORK/metrics.txt" | head -1)"
  [ -n "$val" ] || fail "$metric missing from /metrics"
done
streamed="$(awk '$1 == "vist5_serve_stream_requests_total" {print $2}' "$WORK/metrics.txt" | head -1)"
[ -n "$streamed" ] || fail "vist5_serve_stream_requests_total missing from /metrics"
[ "${streamed%.*}" -ge 1 ] 2>/dev/null || fail "vist5_serve_stream_requests_total = $streamed, expected >= 1 after the streamed request"
stream_toks="$(awk '$1 == "vist5_serve_stream_tokens_total" {print $2}' "$WORK/metrics.txt" | head -1)"
[ "${stream_toks%.*}" -ge "$STREAM_TOKENS" ] 2>/dev/null || \
  fail "vist5_serve_stream_tokens_total = $stream_toks, expected >= $STREAM_TOKENS"
echo "check_metrics: stream series present (requests=$streamed, tokens=$stream_toks)"

# --- /admin/stats carries the prefix_cache section ---------------------------
http_request GET /admin/stats >"$WORK/stats.txt"
[ "$(head -1 "$WORK/stats.txt")" = "200" ] || fail "GET /admin/stats returned $(head -1 "$WORK/stats.txt")"
grep -q '"prefix_cache"' "$WORK/stats.txt" || fail "/admin/stats lacks the prefix_cache section"
grep -q '"hit_rate"' "$WORK/stats.txt" || fail "/admin/stats prefix_cache section lacks hit_rate"
grep -q '"spec"' "$WORK/stats.txt" || fail "/admin/stats lacks the spec section"
grep -q '"acceptance_rate"' "$WORK/stats.txt" || fail "/admin/stats spec section lacks acceptance_rate"
echo "check_metrics: /admin/stats prefix_cache and spec sections present"

# --- /healthz ---------------------------------------------------------------
http_request GET /healthz >"$WORK/health.txt"
[ "$(head -1 "$WORK/health.txt")" = "200" ] || fail "GET /healthz returned $(head -1 "$WORK/health.txt")"
grep -q '"status":"ok"' "$WORK/health.txt" || fail "healthz not ok: $(tail -1 "$WORK/health.txt")"
echo "check_metrics: /healthz ok"

# --- drain / resume ---------------------------------------------------------
http_request POST /admin/drain >"$WORK/drain.txt"
[ "$(head -1 "$WORK/drain.txt")" = "200" ] || fail "POST /admin/drain returned $(head -1 "$WORK/drain.txt")"
reply="$(line_request '{"id":"after-drain","tokens":[2,3,4],"max_len":8}')"
case "$reply" in
  *'"status":"rejected"'*'"draining"'*) ;;
  *) fail "request after drain was not rejected: $reply" ;;
esac
http_request POST /admin/resume >"$WORK/resume.txt"
[ "$(head -1 "$WORK/resume.txt")" = "200" ] || fail "POST /admin/resume returned $(head -1 "$WORK/resume.txt")"
reply="$(line_request '{"id":"after-resume","tokens":[2,3,4],"max_len":8}')"
case "$reply" in
  *'"status":"ok"'*) ;;
  *) fail "request after resume did not return ok: $reply" ;;
esac
echo "check_metrics: drain rejects new requests, resume restores service"

# --- reload of a missing checkpoint ------------------------------------------
# The decode loop answers the reload through the scheduler's callback; a
# load error keeps the old weights in place and serving continues.
http_request POST /admin/reload "{\"path\":\"$WORK/missing.vt5c\"}" >"$WORK/reload.txt"
[ "$(head -1 "$WORK/reload.txt")" = "500" ] || \
  fail "POST /admin/reload of a missing file returned $(head -1 "$WORK/reload.txt")"
reply="$(line_request '{"id":"after-reload","tokens":[2,3,4],"max_len":8}')"
case "$reply" in
  *'"status":"ok"'*) ;;
  *) fail "request after a failed reload did not return ok: $reply" ;;
esac
echo "check_metrics: reload of a missing checkpoint answers 500, serving continues"

echo "check_metrics: PASS"
