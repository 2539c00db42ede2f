#!/usr/bin/env bash
# =============================================================================
# Repository guardrails: the design invariants ROADMAP.md and docs/adr/ state,
# as greps that fail CI when one stops holding.
#
#   - stdlib only: neither go.mod requires a third-party module
#   - the pure packages (stats, feedback, trust, behavior, core) read no wall
#     clock and start no goroutine, so same inputs => same outputs
#   - dependency direction: core/behavior never import wire/repserver/ledger,
#     and nothing outside bench/ imports bench
#   - what an ADR deleted stays deleted
#   - nothing pure in (m, p̂) is memoised (ADR 0002): B(m, p̂) is one scratch
#     table per Test call, and the tester-wide PMF memo, its cap and the
#     store's charge for it stay deleted
#   - histories are columnar and are their own dedup index (ADR 0004)
#   - a history's rating is one good-bit under a popcount rank index, and
#     views stay safe by the append-only layout, not by atomics (ADR 0011)
#   - a history's client dictionary is a name arena, end offsets and a
#     table under a per-process seed, not a map of id strings (ADR 0012)
#   - a snapshot section is a history's columns, never records (ADR 0005)
#   - a verdict's suffix results cross the wire as columns, through one
#     assessment codec (ADR 0006); a chain's distances are rebuilt by the
#     receiver, from the one PMF, built from + − × ÷ alone, and no product
#     on a verdict's path — stats, trust, core, behavior — is fused into an
#     add (ADR 0007); a keyed threshold's grid point is stats.GridPointOf's,
#     which the codec calls and never re-implements, and a connection's
#     threshold bindings commit at its one ordered point at each end:
#     repserver's serve after a frame is written, repclient's demux before a
#     frame is routed (ADR 0006)
#   - one binary codec path: a frame alone is a connection of one frame,
#     and internal/wire neither calls the single-record codec nor takes
#     frame dictionaries without a direction (ADR 0006)
#   - a connection holds a buffer only while a frame is in it: repserver and
#     repclient write bursts from internal/wire's frame pool, never through a
#     per-connection bufio writer
#   - record batches are columns through one codec (ADR 0008): the ledger
#     writes blocks, the wire writes batches, neither frames a record alone
#   - one batch type from frame to block (ADR 0021): internal/store and
#     internal/ledger build []feedback.Feedback only at their named edges
#   - one time column (ADR 0014): a batch's and a section's times are coded
#     by feedback's appendTimes/decodeTimes, and nowhere else
#   - a history's times are resident at the width they need (ADR 0018): a
#     base, a scale and 32-bit quotients, raw int64 only once widened
#   - one on-disk format (ADR 0015): a node refuses older ledgers, whose
#     layouts only internal/ledger/migrate.go reads; nothing is written
#     that nothing reads
#   - one door into a node (ADR 0003): only internal/repserver listens, but
#     for trustd's -metrics-addr HTTP endpoint
#   - one framing (ADR 0009): the binary frame is the only way onto a node;
#     the JSON line framing and every knob that selected it stay deleted
#   - anti-entropy is one round trip of binary payloads (ADR 0022): the
#     digest/delta pair and the cluster.info pair stay deleted, and
#     internal/gossip builds no JSON
#   - one pool for every node-to-node connection (ADR 0022):
#     gossip and cluster dial through repclient.Pool, and nothing outside
#     repclient keeps its own map of clients
#   - one generator step, no Lgamma (ADR 0007): the Monte-Carlo
#     kernels get cheaper per uniform, never by a second copy of the stream;
#     the eight-lane kernel is the one assembly file, pinned by a differential
#   - one read path on a cluster (ADR 0010): no fan-out, digest-verify or
#     merge; fwd.* is batch-only
#   - one metrics registry (ADR 0013): each layer registers its own /metricz
#     keys; no stitched Stats structs, no wrapper or mirror of the document;
#     a distribution is a metrics.Histogram its layer owns, and the
#     hand-rolled bucket code it replaced stays deleted
#   - the ledger writes each commit group with one Write on its file: no
#     bufio in internal/ledger
#   - one engine answers every verdict, and a history is append-only (ADR
#     0016 and its fourth amendment): the attackers, the marketplace, the
#     monitor and the node recompute over a history, a what-if asks a
#     History.Clone, and the accumulator names live only in core's shim file
#   - a snapshot holds records only (ADR 0017): nothing serializes an
#     accumulator, and boot and fault-in replay none
#   - one engine on the node, the reference (ADR 0016's amendment): the
#     serving layers keep no accumulator and no assessment cache, and the
#     accumulator entry points the benchmark compiles against are inert shims
#   - the store faults in its own stubs (ADR 0019): one fault-in path and
#     one per-server single-flight, in internal/store; nothing above the
#     store rebuilds a server
#   - the library ships only assessors a node serves or an experiment runs
#     (ADR 0020): the five deleted testers and trust functions, their facade
#     names and examples/multilevel stay out
#   - experiments are configured by the registry alone (ADR 0020): no
#     exported Config type, Run(Fig|Ablation) function or withDefaults in
#     internal/experiment
#   - phase 1 scores a suffix in one place (ADR 0016): every tester scores
#     through one function, core builds an Assessment in one place; stats.Histogram, the Binomial type, L1HistDistance,
#     ThresholdAt and ReestimateP stay deleted
#   - phase 1 has one collusion window source (ADR 0016):
#     History.CollusionWindows; CollusionOrder, GroupByIssuer, IssuerGroup,
#     clientSeries and collusionCounts stay out of non-test code, and
#     internal/behavior holds no map
#   - trustd serves /metricz on internal/metrics' own HTTP/1.1 responder:
#     net/http, crypto/tls and crypto/x509 stay out of its build graph
#   - per-package non-test line budget (scripts/loc-budget.txt): a package
#     grows only in a diff that raises its line, and a deleted package's line
#     goes with it
#
# Run from anywhere: bash scripts/guardrails.sh
# =============================================================================

set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
FAILED=0

# A check runs without pipefail: most end in `| grep -q .`, which exits at
# the first line, and the grep feeding it then dies of SIGPIPE; under
# pipefail that death failed the pipeline, and the `!` before it passed the
# check whenever there was enough to find.
check() {
    if (set +o pipefail; eval "$2"); then
        echo "ok   $1"
    else
        echo "FAIL $1"
        FAILED=$((FAILED + 1))
    fi
}

# Non-test Go and assembly sources outside the benchmark module, optionally
# under one dir.
sources() { find "${1:-.}" \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './bench/*'; }
# absent PATTERN [DIR]: no source line matches the extended regex.
absent() { ! sources "${2:-.}" | xargs grep -nE -- "$1" | grep -q .; }

# --- stdlib only -------------------------------------------------------------
check "go.mod requires nothing" \
    "! grep -qE '^(require|replace)' go.mod"
check "bench/go.mod requires only the root module" \
    "! grep -E '^require|^\s+[a-z].* v[0-9]' bench/go.mod | grep -vq 'honestplayer v0.0.0'"

# --- pure packages -----------------------------------------------------------
for pkg in stats feedback trust behavior core; do
    check "no time.Now() in internal/$pkg" "absent 'time\.Now\(\)' internal/$pkg"
    check "no go statement in internal/$pkg" "absent '^\s*go (func\b|[A-Za-z_.]+\()' internal/$pkg"
done

# --- dependency direction ----------------------------------------------------
for pkg in core behavior; do
    check "internal/$pkg imports none of wire, repserver, ledger" \
        "absent '\"honestplayer/internal/(wire|repserver|ledger)\"' internal/$pkg"
done
check "nothing outside bench/ imports it" \
    "! find . -name '*.go' ! -path './bench/*' | xargs grep -n '\"honestplayer/bench' | grep -q ."

# --- ADR-deleted symbols stay deleted ----------------------------------------
# 0001: fwd.submit, appendJSONLine, -arena-cap. 0002: kGrid.
# 0003: BatchRecorder, GossipPeers, MissingFrom.
# 0004: ReserveFor, a seen map[Hash] dedup set, []Feedback inside History.
# 0005: loadSorted, lessFeedback, snapServer.recs, []Feedback in snapshot.go.
check "wire type fwd.submit stays deleted (ADR 0001)" "absent '\"fwd\.submit\"'"
check "flag -arena-cap stays deleted (ADR 0001)" "absent '\"arena-cap\"'"
for sym in appendJSONLine kGrid BatchRecorder GossipPeers MissingFrom ReserveFor loadSorted lessFeedback; do
    check "$sym stays deleted" "absent '\b$sym\b'"
done
# 0002 (amended): each Test call refills one m+1 scratch table with B(m, p̂);
# the PMF memo, the knob that capped it, its statistics, the store's charge
# for it and their /metricz keys stay deleted. Substrings, so DefaultArenaCap
# and MemoStatsFor are caught too.
for sym in pmfMemo ArenaCap MemoStats SetSharedBytes memo_bytes shared_bytes; do
    check "$sym stays deleted (ADR 0002)" "absent '$sym'"
done
check "no seen map[Hash] dedup set in internal/store (ADR 0004)" \
    "absent '\bseen\s+map\[Hash\]' internal/store"
check "no []Feedback struct field in internal/feedback (ADR 0004)" \
    "absent '^\s+\w+\s+\[\]Feedback\b' internal/feedback"

# 0011: the byte-per-record rating column and the uint32 good-prefix column
# became a good-bit bitmap with a rank index; a view copies the partial last
# word instead of racing the writer on it.
check "no []uint8 rating column in internal/feedback (ADR 0011)" \
    "absent '^\s+\w+\s+\[\](uint8|byte)\b' internal/feedback"
check "no good []uint32 prefix column in internal/feedback (ADR 0011)" \
    "absent '^\s+good\s+\[\]u?int' internal/feedback"
check "no sync/atomic in internal/feedback (ADR 0011)" \
    "absent '\"sync/atomic\"' internal/feedback"

# 0012: a history's client dictionary is columns too — a name arena, end
# offsets and an open-addressing table — never a Go map or a slice of id
# strings, and the table's hash seed is drawn per process, never fixed.
check "no map in internal/feedback/history.go (ADR 0012)" \
    "absent 'map\[' internal/feedback/history.go"
check "no []EntityID field in internal/feedback/history.go (ADR 0012)" \
    "absent '^\s+\w+\s+\[\]EntityID\b' internal/feedback/history.go"
check "the client table's maphash seed comes from MakeSeed (ADR 0012)" \
    "grep -qE '^var \w+ = maphash\.MakeSeed\(\)$' internal/feedback/history.go \
     && absent 'maphash\.Seed\{|\.SetSeed\(' internal/feedback"

check "no []feedback.Feedback in internal/ledger/snapshot.go (ADR 0005)" \
    "! grep -nE '\[\]feedback\.Feedback' internal/ledger/snapshot.go | grep -q ."
check "snapshot.go declares no record slice (ADR 0005)" \
    "absent '^\s+recs\s+\[\]' internal/ledger/snapshot.go"

# --- one assessment codec, verdict tables as columns (ADR 0006) ---------------
# The row layout wrote three floats and a bool per suffix in a loop over s;
# the column codec writes Pass not at all (or as a bitmap) and is the only
# code in internal/wire that touches a SuffixResult.
check "no per-row float loop over a verdict's suffixes (ADR 0006)" \
    "absent 'appendFloat\(buf, s\.(PHat|Distance|Threshold)\)' internal/wire"
check "no per-row Pass bool on the wire (ADR 0006)" \
    "absent '(appendBool\(buf, [^)]*\.Pass\)|\.Pass, err = r\.bool\(\))' internal/wire"
check "behavior.SuffixResult stays inside internal/wire/verdict.go (ADR 0006)" \
    "! sources internal/wire | grep -v '/verdict\.go\$' | xargs grep -n 'SuffixResult' | grep -q ."
check "one verdict-table decoder and one assessment decoder (ADR 0006)" \
    "[ \"\$(sources | xargs grep -hE 'func \(r \*breader\) (verdictTable|assessment)\(' | wc -l)\" -eq 2 ] \
     && absent 'Verdict\.Suffixes\s*=\s*append' internal/wire"
# A keyed table's thresholds are predicted from each row's calibration grid
# point, which stats.GridPointOf computes for Plane.Threshold and the codec
# alike (ADR 0006): internal/wire rounds no p̂ and
# buckets no window count of its own, and calls the one function.
check "internal/wire keys a threshold through stats.GridPointOf alone (ADR 0006)" \
    "absent '1\.25|math\.(Round|Floor|Ceil|Trunc)\(|\bbucket(Windows|P)\b|\b0\.0[0-9]+\b' internal/wire \
     && sources internal/wire | xargs grep -hE '^[^/]*stats\.GridPointOf\(' | grep -q ."
# A connection's state — its grid bindings, mirror and name tables — is
# kept in step at both ends (ADR 0006): the writer commits a frame's plan
# once the frame is written — never one it encoded and did
# not send, such as an abandoned handler's response or a cancelled caller's
# request — and the reader before it routes or dispatches the frame. Outside
# internal/wire a codec's Commit is called in those places alone: repserver's
# serve for the requests it reads and the responses it writes, repclient's
# send for a request and its demux for a response.
commit_sites() {
    sources | grep -v '^\./internal/wire/' | xargs awk '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
        /\.Commit\(/ { print FILENAME ":" fn }' | sort
}
check "connection tables commit only in repserver's serve and repclient's send and demux (ADR 0006)" \
    "[ \"\$(commit_sites | tr '\n' ' ')\" = './internal/repclient/mux.go:demux ./internal/repclient/mux.go:send ./internal/repserver/server.go:serve ./internal/repserver/server.go:serve ' ]"
# A connection holds a buffer only while a frame is in it: its frames leave
# in bursts from internal/wire's frame pool (wire.Burst), so the serving and
# client loops keep no per-connection bufio writer, which would pin its
# buffer for the connection's life.
check "no per-connection bufio writer in internal/repserver or internal/repclient (wire.Burst)" \
    "absent 'bufio\.NewWriter' internal/repserver && absent 'bufio\.NewWriter' internal/repclient"
# A name crosses a connection once (ADR 0006): every
# entity id and tester or trust-function name a binary payload writes goes
# through the name table's one writer, whose literal path alone spells it —
# a 0 and the string — and no intro of a record batch is written in
# internal/wire but through it.
check "internal/wire spells a name only on the name table's literal path (ADR 0006)" \
    "! sources internal/wire | grep -v '/names\.go\$' \
       | xargs grep -nE 'appendString\([a-z]+, (string\(|[a-zA-Z.]*(Tester|TrustFunc|Server|Client)\b)|AppendUvarint\([a-z]+, uint64\(len\((id|name|s\.Server|s\.Client)\)\)\)' \
       | grep -q . \
     && grep -q 'appendString(append(buf, 0), name)' internal/wire/names.go"
# One binary codec path (ADR 0006's amendment): a frame alone is a
# connection of one frame, on a fresh state of zero bounds, so internal/wire
# has no frame-alone branch — no compact single-record codec and no frame
# dictionaries without the direction they cross.
check "internal/wire has one binary codec path: no feedback.AppendBinary/DecodeBinary, no getFrameDict(nil) (ADR 0006)" \
    "absent 'feedback\.(Append|Decode)Binary\(|getFrameDict\(nil\)' internal/wire"
# A receiver rebuilds a chain's distances as a tester computes them, with
# stats.BinomialPMFInto and stats.L1CountsDistance, so those — and
# Plane.Threshold, which scales each ε — must compute the
# same bits on every GOARCH: no math.Exp, Log, Lgamma or Pow (their kernels
# differ by architecture, ADR 0007), and no product fused into an add, which
# arm64, ppc64le and s390x do unless float64() rounds it first. `return x*y
# + z` compiles to FMADDD under GOARCH=arm64, and `float64(x*y) + z` to FMULD
# and FADDD; the compiler's listing tags each instruction, inlined ones too,
# with its source line.
for dir in internal/wire internal/stats/binomial.go internal/stats/distance.go internal/stats/calibrate.go; do
    check "$dir calls no math.Exp, Log, Lgamma or Pow (ADR 0006, 0007)" \
        "absent 'math\.(Exp|Log|Lgamma|Pow)[0-9a-z]*\(' $dir"
done
# Every ε (stats.Quantile over the calibration stream), every Wilson bound
# and every trust value is on the verdict's path as well, so the rule covers
# each non-test file of the four packages that compute a verdict; the listing
# must show the PMF's and the distance's own FMULD and FDIVD, so an empty or
# cached-away listing cannot pass.
verdict_arm64=$(GOARCH=arm64 go build -gcflags=-S ./internal/stats ./internal/trust ./internal/core ./internal/behavior 2>&1 || true)
pmf_arm64=$(grep -E 'internal/stats/(binomial|distance)\.go:' <<<"$verdict_arm64" || true)
check "stats, trust, core and behavior have no fused multiply-add on arm64 (ADR 0006, 0007)" \
    "grep -qw FMULD <<<\"\$pmf_arm64\" && grep -qw FDIVD <<<\"\$pmf_arm64\" \
     && ! grep -qwE 'F(N?)M(ADD|SUB)[DS]' <<<\"\$verdict_arm64\""

# --- record batches are columns, one codec (ADR 0008) -------------------------
# The row writer (appendRecord: one AppendBinary payload, length and CRC per
# record) is gone; the single-record codec survives for single submit frames,
# for bench/ and for the v1 segment *reader* of the migration (ADR 0015),
# which is one file. The batch layout is defined once, in
# internal/feedback/batch.go: ledger and wire call it and neither walks a
# time-delta or id-slot column of its own.
check "appendRecord stays deleted from internal/ledger (ADR 0008)" \
    "absent 'appendRecord\(' internal/ledger"
check "internal/ledger touches the single-record codec only in migrate.go (ADR 0008)" \
    "! sources internal/ledger | grep -v '/migrate\.go\$' | xargs grep -nE 'feedback\.(Append|Decode)Binary(All)?\(' | grep -q . \
     && ! grep -q 'feedback\.AppendBinary(' internal/ledger/migrate.go"
check "the v1 segment magic lives in migrate.go only (ADR 0008)" \
    "! sources internal/ledger | grep -v '/migrate\.go\$' | xargs grep -nE \"'G', '1'|HPSEG1\" | grep -q ."
records_fn() { sed -n '/^func appendRecords(/,/^}/p' internal/wire/binary.go; }
check "wire.appendRecords is the batch codec, not a per-record loop (ADR 0008)" \
    "records_fn | grep -q 'feedback\.AppendBatch(' && ! records_fn | grep -qE 'AppendBinary|for '"
check "one caller of the batch codec per container: ledger block, wire frame (ADR 0008)" \
    "[ \"\$(sources | grep -v '^\./internal/feedback/' \
           | xargs grep -lE 'feedback\.(AppendBatch|AppendBatches|DecodeBatch)\(|\.Decode\([^,()]+, [^,()]+\)' | sort | tr '\n' ' ')\" = \
       './internal/ledger/segment.go ./internal/wire/binary.go ' ]"

# --- one batch type from frame to block (ADR 0021) ---------------------------
# A decoded record batch is what the write path carries: the store applies
# it one server run at a time, the ledger remaps its refs onto a segment's
# dictionaries, replay applies each decoded block. Rows are built at the
# edges alone — a write of one record (Add, Append), the reads bench and the
# tools make of a whole log or history (Open, Records) and the tail index,
# which ROADMAP 4(b) replaces — so the list below only shrinks.
feedback_rows() {
    awk '/^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn) }
         /\[\]feedback\.Feedback(\{|\(nil\))|make\((map\[string\])?\[\]feedback\.Feedback|\.Records\(\)/ {
             f = FILENAME; sub(/^\.\//, "", f); print f ":" fn }' "$@" | sort -u | tr '\n' ' '
}
check "internal/store and internal/ledger build []feedback.Feedback only at their edges (ADR 0021)" \
    "[ \"\$(feedback_rows \$(sources internal/store; sources internal/ledger))\" = \
       'internal/ledger/ledger.go:Append internal/ledger/ledger.go:Open internal/ledger/rebuild.go:sources internal/ledger/rebuild.go:tailAdd internal/ledger/store.go:Add internal/store/store.go:Add internal/store/store.go:Records ' ]"
check "no second definition of the batch columns (ADR 0008)" \
    "absent '\bBatchDicts\b.*struct|zig-?zag' internal/ledger \
     && ! sources internal/wire | grep -v '/verdict\.go\$' | xargs grep -nE 'AppendVarint\(|zig-?zag' | grep -q ."

# --- one time column (ADR 0014) ----------------------------------------------
# Frames, ledger blocks and snapshot sections write their times through
# appendTimes / decodeTimes in internal/feedback/times.go. A time-delta
# varint loop anywhere else — a varint or zig-zag line in internal/feedback
# outside those two functions, any in internal/ledger, any in internal/wire
# beyond verdict.go's (whose deltas are counts, never times) — is a second
# time layout waiting to drift.
varint_lines() { grep -cE '(Append|Put)Varint\(|binary\.Varint\(|>>\s*1\)\s*\^\s*-' || true; }
times_fns() { sed -n '/^func \(appendTimes\|decodeTimes\)[[(]/,/^}/p' internal/feedback/times.go; }
check "time deltas are varint-coded only in feedback's appendTimes/decodeTimes (ADR 0014)" \
    "[ \"\$(sources internal/feedback | xargs cat | varint_lines)\" -eq \"\$(times_fns | varint_lines)\" ] \
     && [ \"\$(times_fns | varint_lines)\" -gt 0 ] \
     && absent '(Append|Put)Varint\(|binary\.Varint\(|>>\s*1\)\s*\^\s*-|UnixNano\(\)\s*-' internal/ledger \
     && ! sources internal/wire | grep -v '/verdict\.go\$' | xargs grep -nE 'Varint\(|>>\s*1\)\s*\^\s*-' | grep -q . \
     && ! grep -nE 'UnixNano|\.Time\b|nanos' internal/wire/verdict.go | grep -q ."

# --- resident times carry their common divisor (ADR 0018) ---------------------
# A history's time column is a base, a scale and one 32-bit quotient per
# record; it widens to raw times with one copy only when a quotient would
# leave int32. The 8-byte nanos column stays deleted, and t64 is the one
# []int64 a History holds.
check "no nanos []int64 column in internal/feedback/history.go (ADR 0018)" \
    "absent '^\s+nanos\s+\[\]int64\b' internal/feedback/history.go"
check "t64 is the only []int64 field in internal/feedback/history.go (ADR 0018)" \
    "[ \"\$(grep -cE '^\s+\w+\s+\[\]int64\b' internal/feedback/history.go)\" -eq 1 ] \
     && grep -qE '^\s+t64\s+\[\]int64$' internal/feedback/history.go \
     && grep -qE '^\s+t32\s+\[\]int32$' internal/feedback/history.go"

# --- one on-disk format, nothing write-only (ADR 0015) -------------------------
# A node opens current-format segment directories only and refuses anything
# older; the layouts of earlier revisions are read in internal/ledger/
# migrate.go and nowhere else, behind trustctl ledger-migrate. The in-place
# upgrade and the stub sidecar nothing read are gone, and the store's record
# set is summarised by one value, Checksum.
for sym in migrateToDir retireLegacy sealedAt segKind sniffKind stubMagic stubsName encodeStubs \
           decodeStubs writeStubs AppendStub DecodeStub SetSnapshotSeq stubSnapSeq SnapSeq snapSeq countLocked; do
    check "$sym stays deleted (ADR 0015)" "absent '\b$sym\b'"
done
check "Store.Stubs, Info.Legacy and SegmentInfo.Format stay deleted (ADR 0015)" \
    "absent 'func \(s \*Store\) Stubs\(|\.Stubs\(\)' && absent '^\s+(Legacy|Format)\s' internal/ledger"
check "trustctl ledger-info prints no formats: line (ADR 0015)" "absent 'formats:' cmd/trustctl"
check "the older layouts are read in internal/ledger/migrate.go only (ADR 0015)" \
    "! sources | grep -v '^./internal/ledger/migrate\.go\$' | xargs grep -nE '\b(segMagicV1|segMagicV2|scanJSON|scanRows)\b' | grep -q . \
     && [ \"\$(grep -cE '\b(segMagicV1|segMagicV2|scanJSON|scanRows)\b' internal/ledger/migrate.go)\" -gt 0 ]"
check "internal/ledger reads the unscaled time column only in migrate.go (ADR 0015)" \
    "! sources internal/ledger | grep -v '/migrate\.go\$' | xargs grep -n 'Unscaled' | grep -q ."

# --- one door into a node (ADR 0003) -----------------------------------------
# The one other listener is trustd's -metrics-addr HTTP endpoint, bound
# before the node serves so that a taken port stops start-up; it carries no
# node traffic.
check "net.Listen only in internal/repserver, and for trustd's -metrics-addr" \
    "! sources | grep -v '^./internal/repserver/' | xargs grep -n 'net\.Listen\b' \
       | grep -v '^./cmd/trustd/main\.go:[0-9]*:.*net\.Listen(\"tcp\", \*metricsAddr)' | grep -q ."
# trustd's one HTTP route is internal/metrics' own responder (ADR 0013's
# responder amendment): net/http, and the TLS and X.509 code it drags in,
# stay out of the node's build graph.
trustd_links_no_http() {
    local deps
    deps=$(go list -deps ./cmd/trustd) || return 1
    ! grep -qxE 'net/http|crypto/tls|crypto/x509' <<<"$deps"
}
check "cmd/trustd links none of net/http, crypto/tls, crypto/x509 (ADR 0013)" "trustd_links_no_http"
check "internal/gossip imports neither net nor bufio" \
    "absent '^\s*\"(net|bufio)\"' internal/gossip"

# --- one framing (ADR 0009) ---------------------------------------------------
# A codec-revision skew meets on JSON payloads inside the frame (BridgeCodec),
# never on a second framing: no line reader, no selector for one.
check "ProtoJSON, ProtoAuto and DisableV2 stay deleted (ADR 0009)" \
    "absent '\b(ProtoJSON|ProtoAuto|DisableV2)\b'"
check "flags -wire-v2 and -proto stay deleted (ADR 0009)" \
    "absent '\"(wire-v2|proto)\"'"
check "no JSON line reader: wire.Read, wire.ReadRaw, wire.Parse (ADR 0009)" \
    "absent 'wire\.(Read|ReadRaw|Parse)\('"
check "no newline framing: no bufio ReadSlice (ADR 0009)" \
    "absent '\.ReadSlice\('"

# --- anti-entropy in one round trip (ADR 0022) ---------------------------------
# A round is a summary answered with the stale servers and one record batch;
# the second round trip, its JSON digest and delta, and the JSON-only
# cluster.info pair — whose answer is the /metricz cluster block — are gone.
for sym in DigestMsg DeltaMsg GossipDigestCtx ClusterStatusResponse handleClusterInfo; do
    check "$sym stays deleted (ADR 0022)" "absent '\b$sym\b'"
done
check "internal/gossip does not import encoding/json (ADR 0022)" \
    "absent '^\s*\"encoding/json\"' internal/gossip"

# --- one pool for every node-to-node connection (ADR 0022) --------------------
# A node holds its peer connections in repclient.Pool, one shared client per
# address: the cluster's forwards, replication pushes and rounds in one, an
# unclustered reconciler's rounds in its own. Neither dials per call nor
# keeps a second table of clients beside a pool.
check "internal/gossip and internal/cluster call no repclient.Dial (repclient.Pool)" \
    "absent 'repclient\.Dial\(' internal/gossip && absent 'repclient\.Dial\(' internal/cluster"
check "no map of repclient clients outside internal/repclient (repclient.Pool)" \
    "absent 'map\[string\]\*repclient\.Client'"

# --- stream-identical Monte-Carlo (ADR 0007) ----------------------------------
# A batch kernel must repeat the generator's step, not re-derive it: a copy
# of xoshiro inside calibrate.go is a second stream waiting to diverge. And
# the one PMF is built from + − × ÷ (above): no Lgamma term is left anywhere.
check "the xoshiro step lives in internal/stats/rng.go and its lane kernel only (ADR 0007)" \
    "! sources | grep -vE '^./internal/stats/(rng\.go|lanes_amd64\.s)\$' | xargs grep -n 'rotl(' | grep -q ."
# The lane kernel is the one assembly file, and a differential holds it to
# the scalar loop bit for bit: a second kernel (AVX2, another architecture)
# is a second copy of the transition to keep identical.
check "one assembly file: internal/stats/lanes_amd64.s (ADR 0007)" \
    "[ \"\$(find . -name '*.s' ! -path './.git/*' | tr '\n' ' ')\" = './internal/stats/lanes_amd64.s ' ] \
     && grep -q '^func TestCalibrateL1LanesMatchScalar(' internal/stats/lanes_test.go"
check "no math.Lgamma in internal/stats, or anywhere else (ADR 0007)" \
    "absent 'math\.Lgamma\('"

# --- one read path on a cluster (ADR 0010) ------------------------------------
# A clustered read is the owner's answer — or, while the owner is unreachable,
# the next replica's — never a blend of several nodes' views.
check "cluster.Merge stays deleted (ADR 0010)" \
    "absent 'cluster\.Merge\(' && absent '^func Merge\(' internal/cluster"
for sym in NodeAssessment FwdAssessRequest DigestOnly MergedFrom ForwardAssessCtx; do
    check "$sym stays deleted (ADR 0010)" "absent '\b$sym\b'"
done
check "wire type fwd.assess stays deleted (ADR 0010)" "absent '\"fwd\.assess\"'"
check "fwd.* is batch-only: FwdBatchRequest and FwdAssessBatchRequest (ADR 0010)" \
    "[ \"\$(sources internal/wire | xargs grep -ohE '^type Fwd\w*Request\b' | sort | tr '\n' ' ')\" = \
       'type FwdAssessBatchRequest type FwdBatchRequest ' ]"

# --- one metrics registry (ADR 0013) ------------------------------------------
# Each layer registers its own /metricz keys into internal/metrics; no layer
# copies counters into a JSON-tagged Stats struct, and neither trustd nor
# trustctl declares the document's blocks a second time.
for sym in ClusterStats GroupCommitStats LifecycleStats IncrementalStats; do
    check "$sym stays deleted (ADR 0013)" "absent '\b$sym\b'"
done
check "Server.Stats and PersistentStore.Stats stay deleted (ADR 0013)" \
    "absent 'func \((s \*Server|ps \*PersistentStore)\) Stats\('"
check "no anonymous struct around the /metricz document in cmd/trustd (ADR 0013)" \
    "absent '^\s+(repserver|ledger|store)\.[A-Z]\w*\s*$|json:\"(ledger|top_resident)' cmd/trustd"
check "no mirror of a /metricz block in cmd/trustctl (ADR 0013)" \
    "absent 'json:\"(lifecycle|fault_ins|snapshot_seq|top_resident)' cmd/trustctl"
for sym in groupBucket groupQuantile numBuckets; do
    check "$sym stays deleted: distributions are metrics.Histogram (ADR 0013)" "absent '\b$sym\b'"
done
check "no bufio in internal/ledger: a commit group is one Write on the file" \
    "absent '\"bufio\"' internal/ledger"
check "internal/metrics imports no honestplayer package (ADR 0013)" \
    "absent '\"honestplayer/' internal/metrics"
for pkg in stats feedback trust behavior core; do
    check "internal/$pkg does not import internal/metrics (ADR 0013)" \
        "absent '\"honestplayer/internal/metrics\"' internal/$pkg"
done

# --- one engine for every verdict, append-only histories (ADR 0016) ----------
# The attackers, the marketplace simulation and the monitor judge a history
# with TwoPhase.Accept / Assess, and ask a History.Clone what a record would
# change; a history loses no record, and the dead surface that went with it
# stays out. The incremental engine is gone (the fourth amendment): outside
# core's shim file, which bench/ compiles against, non-test code names none
# of its entry points, and the behavior and trust halves stay deleted.
check "RemoveLast stays deleted (ADR 0016)" "absent '\bRemoveLast\b'"
check "feedback.ErrEmptyHistory stays deleted (ADR 0016)" "absent '\bErrEmptyHistory\b' internal/feedback"
check "wouldAccept stays deleted (ADR 0016)" "absent '\bwouldAccept\b'"
check "internal/eigentrust and examples/p2prank stay deleted (ADR 0016)" \
    "[ ! -e internal/eigentrust ] && [ ! -e examples/p2prank ] \
     && absent 'honestplayer/internal/eigentrust|\b(EigenTrust\w+|ComputeEigenTrust)\b'"
check "the six unused statistics stay deleted (ADR 0016)" \
    "absent '\b(L1Distance|L2Distance|ChiSquareStat|KSStat|L1SampleDistance|BinomialMLE)\b'"
check "outside internal/core/shim.go nothing names the accumulator engine (ADR 0016's fourth amendment)" \
    "! sources | grep -v '^./internal/core/shim\.go$' \
       | xargs grep -nE '\b(ServerAccumulator|NewAccumulatorFor|SupportsAccumulator|SupportsIncremental|TrackerFunc)\b' | grep -q ."
for sym in 'type Accumulator struct' 'type Tracker interface' NewTracker accMode; do
    check "$sym stays out of internal/behavior and internal/trust (ADR 0016's fourth amendment)" \
        "absent '\b$sym\b' internal/behavior && absent '\b$sym\b' internal/trust"
done

# --- a snapshot holds records only (ADR 0017) ----------------------------------
# An accumulator is a pure function of the history it consumed, so nothing
# serializes one (and since ADR 0016's amendment, boot and rebuild-on-demand
# replay into none). The codecs in
# behavior, trust and core stay deleted; the ledger reads neither deprecated
# Options field; ServerAccumulator.AppendState and
# TwoPhase.RestoreServerAccumulator survive only as the inert shims bench/
# still compiles against.
check "no AppendState / RestoreState in internal/behavior or internal/trust (ADR 0017)" \
    "absent '\b(AppendState|RestoreState)\b' internal/behavior && absent '\b(AppendState|RestoreState)\b' internal/trust"
for sym in StateTracker SupportsIncrementalState accStateVersion saStateVersion; do
    check "$sym stays deleted (ADR 0017)" "absent '\b$sym\b'"
done
check "internal/ledger reads no accState, EncodeAccumulator or RestoreAccumulator (ADR 0017)" \
    "absent '\baccState\b|\.(EncodeAccumulator|RestoreAccumulator)\b' internal/ledger"
shim_defs() { sources | xargs grep -nE 'func \([^)]*\) (AppendState|RestoreServerAccumulator)\('; }
check "the two core shims are the only AppendState / RestoreServerAccumulator (ADR 0017)" \
    "[ \"\$(shim_defs | wc -l)\" -eq 2 ] && ! shim_defs | grep -v '^./internal/core/shim\.go:' | grep -q . \
     && [ \"\$(grep -cE '^// Deprecated: a snapshot holds records only' internal/core/shim.go)\" -eq 2 ]"

# --- one engine on the node, the reference (ADR 0016's amendment) --------------
# trustd answers every verdict with TwoPhase.Accept over the stored history:
# the serving layers mint, feed, replay and read no accumulator, the
# assessment cache has no importer but the benchmark, and the store's two
# accumulator entry points are the shims bench/ compiles against.
check "non-test code outside bench/ does not import internal/assesscache (ADR 0016's amendment)" \
    "! sources | grep -v '^./internal/assesscache/' | xargs grep -n '\"honestplayer/internal/assesscache\"' | grep -q ."
for dir in internal/repserver internal/store internal/ledger cmd/trustd; do
    check "$dir names no ServerAccumulator (ADR 0016's amendment)" \
        "absent '\b(New)?ServerAccumulator\b' $dir"
done
# body_of NAME: the source of the one method NAME, from its func line to its
# closing brace (the func line alone when the body is {}).
body_of() {
    sources | xargs awk -v name="$1" '$0 ~ "^func \\([^)]*\\) " name "\\(" { p = 1 }
        p { print } p && (/^}/ || /\{\}$/) { p = 0 }'
}
inert_factory() { [ "$(body_of SetAccumulatorFactory)" = 'func (s *Store) SetAccumulatorFactory(AccumulatorFactory) {}' ]; }
inert_view() {
    [ "$(body_of ViewAccumulator | wc -l)" -eq 3 ] && [ "$(body_of ViewAccumulator | sed -n 2p)" = $'\treturn false' ]
}
check "Store.SetAccumulatorFactory has no body (ADR 0016's amendment)" "inert_factory"
check "Store.ViewAccumulator only returns false (ADR 0016's amendment)" "inert_view"

# --- the store faults in its own stubs (ADR 0019) -----------------------------
# A budget comes with the loader that brings a stub back, and every store
# entry point that meets a stub faults it in through one single-flight map
# keyed by server. The repserver-side rebuilder, its wiring and the ledger's
# own write retry stay deleted; nothing outside internal/store keeps a
# per-server map of waits.
for sym in Rebuilder RebuildServer ErrNoRebuild viewResident faultWait ReinstateServer; do
    check "$sym stays deleted (ADR 0019)" "absent '\b$sym\b'"
done
singleflight='map\[(string|feedback\.EntityID)\](chan struct\{\}|\*fault\b)'
check "one per-server fault-in single-flight map, in internal/store (ADR 0019)" \
    "! sources | grep -v '^./internal/store/' | xargs grep -nE \"\$singleflight\" | grep -q . \
     && [ \"\$(sources internal/store | xargs grep -hE \"^\\s+\\w+\\s+\$singleflight\" | wc -l)\" -eq 1 ]"

# --- only served or measured assessors (ADR 0020) -----------------------------
# No trustd flag, core.Spec, experiment or golden named the §3.1 sketch testers
# (multi-value, category, piecewise) or the time-decay and sliding-window trust
# functions, and none of the testers had an incremental form. They, their
# facade names, the example that ran them and four test-only statistics stay
# deleted; Monitor takes no threshold it never read.
for sym in MultiValue NewMultiValue MultiValueTester NewMultiValueTester Partitioned NewPartitioned \
           PartitionedTester NewPartitionedTester PartitionFunc CategoryVerdict Piecewise NewPiecewise \
           PiecewiseTester NewPiecewiseTester TimeDecay NewTimeDecay decayTracker SlidingWindow \
           NewSlidingWindow windowTracker MeanInt AddCount; do
    check "$sym stays deleted (ADR 0020)" "absent '\b$sym\b'"
done
check "Histogram.Freq and Histogram.Freqs stay deleted (ADR 0020)" "absent '\bFreqs?\(' internal/stats"
check "examples/multilevel stays deleted (ADR 0020)" "[ ! -e examples/multilevel ]"
check "NewMonitor takes no threshold (ADR 0020)" "absent 'func NewMonitor\([^)]*threshold'"

# --- experiments are configured by the registry alone (ADR 0020) -------------
# Options{Seed, Quick} is the one way in: each experiment's full and Quick
# parameters are one unexported struct beside its runner, and a value no
# scale or test varies is a constant, not a zero-means-default field.
check "no exported Config type in internal/experiment (ADR 0020)" \
    "absent '^type [A-Z]\w*Config\b' internal/experiment"
check "no exported Run(Fig|Ablation) function in internal/experiment (ADR 0020)" \
    "absent '^func Run(Fig|Ablation)' internal/experiment"
check "no withDefaults in internal/experiment (ADR 0020)" \
    "absent '\bwithDefaults\b' internal/experiment"

# --- one suffix score, one Assessment builder (ADR 0016) ----------------------
# Every tester scores a suffix with one function and differs from the
# others only in where the windows come from; core builds every Assessment
# in one place. The batch-only statistics types, the
# distance and threshold entry points only they called, and the calibration
# knob nothing set stay deleted.
check "stats.Histogram, NewHistogram and MustHistogram stay deleted (ADR 0016)" \
    "absent '\b(stats\.Histogram|NewHistogram|MustHistogram)\b' && absent '^type Histogram\b' internal/stats"
check "the Binomial type, NewBinomial and MustBinomial stay deleted (ADR 0016)" \
    "absent '\btype Binomial\b|\b(NewBinomial|MustBinomial)\b|\bstats\.Binomial\b'"
for sym in L1HistDistance ThresholdAt ReestimateP; do
    check "$sym stays deleted (ADR 0016)" "absent '\b$sym\b'"
done
check "no testHistogram in internal/behavior (ADR 0016)" "absent '\btestHistogram\b' internal/behavior"
check "one suffix score: internal/behavior measures a distance in one place (ADR 0016)" \
    "[ \"\$(sources internal/behavior | xargs grep -hE 'L1CountsDistance\(|\.Threshold\(' | wc -l)\" -eq 2 ] \
     && [ \"\$(sources internal/behavior | xargs grep -lE 'L1CountsDistance\(|\.Threshold\(')\" = internal/behavior/behavior.go ]"
check "one Assessment builder in internal/core (ADR 0016)" \
    "[ \"\$(sources internal/core | xargs grep -hE '\bAssessment\{' | wc -l)\" -eq 1 ]"

# --- one collusion window source (ADR 0016's collusion-window amendment) ---
# The collusion testers read every suffix's issuer-re-ordered windows from
# History.CollusionWindows, as they share scorer.score: no materialised
# re-order, group list or per-client series is left beside it (the
# test-only CollusionOrder is the definition the kernel is held to), and
# internal/behavior keeps no map.
for sym in CollusionOrder GroupByIssuer IssuerGroup clientSeries collusionCounts; do
    check "$sym stays out of non-test code (ADR 0016)" "absent '\b$sym\b'"
done
check "internal/behavior holds no map (ADR 0016)" "absent 'map\[' internal/behavior"

# --- per-package LOC ratchet --------------------------------------------------
# Each package's non-test lines (as sources counts them, assembly included) must stay at or below
# its line in scripts/loc-budget.txt, every package needs a line, and every
# line needs a package. A PR that grows a package raises its budget in the
# same diff; one that deletes a package deletes its line.
loc_counts() {
    sources | xargs wc -l | awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1 }
        END { for (d in n) print d, n[d] }' | sort
}
loc_within_budget() {
    awk 'NR == FNR { if ($1 !~ /^#/ && NF == 2) budget[$1] = $2; next }
         { seen[$1] = 1 }
         !($1 in budget) { print "     " $1 ": " $2 " lines, no budget line"; bad = 1; next }
         $2 > budget[$1] { print "     " $1 ": " $2 " lines, budget " budget[$1]; bad = 1 }
         END { for (d in budget) if (!(d in seen)) { print "     " d ": budget line, no sources"; bad = 1 }
               exit bad }' scripts/loc-budget.txt <(loc_counts)
}
check "every package within its non-test line budget (scripts/loc-budget.txt)" "loc_within_budget"

echo
if [ "$FAILED" -gt 0 ]; then
    echo "$FAILED guardrail(s) failed"
    exit 1
fi
echo "all guardrails hold"
