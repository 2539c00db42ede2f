// Command trustctl is the CLI client for a trustd reputation server.
//
// Usage:
//
//	trustctl -addr 127.0.0.1:7700 ping
//	trustctl -addr 127.0.0.1:7700 submit -server s1 -client alice -rating positive
//	trustctl -addr 127.0.0.1:7700 history -server s1 -limit 20
//	trustctl -addr 127.0.0.1:7700 assess -server s1 -threshold 0.9
//	trustctl -addr 127.0.0.1:7700 assess-batch -threshold 0.9 s1 s2 s3
//	trustctl assess-batch -threshold 0.9 < servers.txt   # IDs from stdin
//	trustctl submit-batch '{"time":"...","server":"s1","client":"c1","rating":1}'
//	trustctl submit-batch < records.jsonl                # records from stdin
//	trustctl local-assess -file history.jsonl -scheme multi -trust average
//	trustctl ledger-info -path /var/lib/trustd/ledger   # offline checksum audit
//	trustctl mem-status -metrics http://127.0.0.1:7780  # memory lifecycle via /metricz
//	trustctl -addr host1:7700,host2:7700,host3:7700 assess -server s1
//	trustctl cluster-status -metrics http://host1:7780  # cluster view via /metricz
//
// A comma-separated -addr probes every address at dial time and talks to the
// fastest responder, failing over to the others if it goes down.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trustctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trustctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "reputation server address (comma-separated list probes all and prefers the fastest)")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout (bounds dial and each request)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command: ping | submit | submit-batch | history | assess | assess-batch | cluster-status | mem-status | local-assess | ledger-info")
	}
	// local-assess, ledger-info, mem-status and cluster-status need
	// no wire connection (the last two read the metrics HTTP endpoint).
	switch rest[0] {
	case "local-assess":
		return localAssess(rest[1:], out)
	case "ledger-info":
		return ledgerInfo(rest[1:], out)
	case "mem-status":
		return memStatus(rest[1:], out)
	case "cluster-status":
		return clusterStatus(rest[1:], out)
	}

	// The flag bounds the whole command through the context-taking client
	// methods (the dial timeout rides along via WithTimeout).
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	addrs := strings.Split(*addr, ",")
	client, err := repclient.DialCluster(addrs, repclient.WithTimeout(*timeout))
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	switch rest[0] {
	case "ping":
		if err := client.PingCtx(ctx); err != nil {
			return err
		}
		fmt.Fprintln(out, "pong")
		return nil
	case "submit":
		return submit(ctx, client, rest[1:], out)
	case "submit-batch":
		return submitBatch(ctx, client, rest[1:], out)
	case "history":
		return history(ctx, client, rest[1:], out)
	case "assess":
		return assess(ctx, client, rest[1:], out)
	case "assess-batch":
		return assessBatch(ctx, client, rest[1:], out)
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

func submit(ctx context.Context, client *repclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var (
		server = fs.String("server", "", "server being rated")
		cl     = fs.String("client", "", "feedback issuer")
		rating = fs.String("rating", "positive", "positive | negative")
		at     = fs.String("time", "", "transaction time (RFC3339; empty = now)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := feedback.Positive
	switch *rating {
	case "positive":
	case "negative":
		r = feedback.Negative
	default:
		return fmt.Errorf("invalid rating %q", *rating)
	}
	when := time.Now().UTC()
	if *at != "" {
		parsed, err := time.Parse(time.RFC3339, *at)
		if err != nil {
			return fmt.Errorf("parse -time: %w", err)
		}
		when = parsed
	}
	stored, err := client.SubmitCtx(ctx, feedback.Feedback{
		Time: when, Server: feedback.EntityID(*server), Client: feedback.EntityID(*cl), Rating: r,
	})
	if err != nil {
		return err
	}
	if stored {
		fmt.Fprintln(out, "stored")
	} else {
		fmt.Fprintln(out, "duplicate (ignored)")
	}
	return nil
}

func history(ctx context.Context, client *repclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	var (
		server = fs.String("server", "", "server to fetch")
		limit  = fs.Int("limit", 0, "max records (0 = server default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, total, err := client.HistoryCtx(ctx, feedback.EntityID(*server), *limit)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d records (of %d total)\n", len(recs), total)
	for _, r := range recs {
		fmt.Fprintf(out, "%s  %-8s  client=%s\n", r.Time.Format(time.RFC3339), r.Rating, r.Client)
	}
	return nil
}

func assess(ctx context.Context, client *repclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("assess", flag.ContinueOnError)
	var (
		server    = fs.String("server", "", "server to assess")
		threshold = fs.Float64("threshold", 0.9, "trust threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := client.AssessCtx(ctx, feedback.EntityID(*server), *threshold)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// stdin is the assess-batch fallback input, swappable in tests.
var stdin io.Reader = os.Stdin

// assessBatch assesses many servers in one request (the client chunks
// transparently past the wire's max batch size). Server IDs come from the
// positional arguments, or — when none are given — one per line from stdin.
// The output is the JSON item array; per-server failures appear in their
// item's "error" field without failing the command.
func assessBatch(ctx context.Context, client *repclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("assess-batch", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.9, "trust threshold applied to every server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var servers []feedback.EntityID
	for _, a := range fs.Args() {
		servers = append(servers, feedback.EntityID(a))
	}
	if len(servers) == 0 {
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				servers = append(servers, feedback.EntityID(line))
			}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("read server IDs from stdin: %w", err)
		}
	}
	if len(servers) == 0 {
		return fmt.Errorf("assess-batch: no server IDs (pass them as arguments or one per line on stdin)")
	}
	items, err := client.AssessBatchCtx(ctx, servers, *threshold)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(items)
}

// submitBatch submits many records in one request (the client chunks
// transparently past the wire's max batch size). Records come from the
// positional arguments — one JSON object each, in the ledger / JSON-lines
// record shape — or, when none are given, as JSON lines from stdin. The
// output is the server's per-record report; rejected records appear in
// their item's "error" field without failing the command.
func submitBatch(ctx context.Context, client *repclient.Client, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("submit-batch", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var recs []feedback.Feedback
	if rest := fs.Args(); len(rest) > 0 {
		for i, a := range rest {
			var f feedback.Feedback
			if err := json.Unmarshal([]byte(a), &f); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			recs = append(recs, f)
		}
	} else {
		var err error
		recs, err = feedback.ReadJSONLines(stdin)
		if err != nil {
			return fmt.Errorf("read records from stdin: %w", err)
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("submit-batch: no records (pass JSON objects as arguments or JSON lines on stdin)")
	}
	resp, err := client.SubmitBatchReportCtx(ctx, recs)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// clusterStatus prints a trustd node's view of its cluster, the cluster
// block of its /metricz document; an unclustered node's reads enabled false.
func clusterStatus(args []string, out io.Writer) error {
	doc, err := fetchMetricz(flag.NewFlagSet("cluster-status", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc.get("cluster"))
}

// memStatus fetches a trustd node's /metricz endpoint and prints the memory
// lifecycle picture: resident/evicted counts against the budget, eviction
// and fault-in activity, and the largest resident servers by accounted bytes.
func memStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mem-status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the lifecycle section as JSON")
	doc, err := fetchMetricz(fs, args)
	if err != nil {
		return err
	}
	var led map[string]int64 // the ledger's snapshot sequence, when it has a block
	if doc.get("ledger") != nil {
		led = map[string]int64{"snapshot_seq": doc.int("ledger", "snapshot_seq")}
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"lifecycle": doc.get("lifecycle"), "ledger": led, "top_resident": doc.get("top_resident")})
	}
	if doc.get("lifecycle", "enabled") != true {
		fmt.Fprintln(out, "memory lifecycle: disabled (start trustd with -mem-budget and -ledger)")
		return nil
	}
	life := func(key string) int64 { return doc.int("lifecycle", key) }
	budget := float64(max(life("budget_bytes"), 1))
	fmt.Fprintf(out, "memory budget: %s\n", fmtBytes(life("budget_bytes")))
	fmt.Fprintf(out, "  resident: %d servers, %s accounted (%.1f%% of budget)\n",
		life("resident"), fmtBytes(life("resident_bytes")), 100*float64(life("resident_bytes"))/budget)
	fmt.Fprintf(out, "  evicted:  %d servers\n", life("evicted"))
	fmt.Fprintf(out, "  evictions %d, reinstates %d\n", life("evictions"), life("reinstates"))
	fmt.Fprintf(out, "  fault-in waits %d, errors %d\n", life("fault_waits"), life("fault_errors"))
	if led != nil {
		fmt.Fprintf(out, "  ledger: snapshot seq %d\n", led["snapshot_seq"])
	}
	top, _ := doc.get("top_resident").([]any)
	if len(top) > 0 {
		fmt.Fprintln(out, "top resident servers by accounted bytes:")
	}
	for _, e := range top {
		r, _ := e.(map[string]any)
		fmt.Fprintf(out, "  %-24v %10s  %d records\n", r["server"], fmtBytes(metricz(r).int("bytes")), metricz(r).int("records"))
	}
	return nil
}

// fetchMetricz adds the node's metrics endpoint and an HTTP timeout to a
// command's flags fs, parses args, and fetches and decodes the node's
// /metricz document.
func fetchMetricz(fs *flag.FlagSet, args []string) (metricz, error) {
	metrics := fs.String("metrics", "http://127.0.0.1:7780", "trustd metrics endpoint base URL (-metrics-addr)")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	url := strings.TrimSuffix(*metrics, "/") + "/metricz"
	if !strings.Contains(*metrics, "://") {
		url = "http://" + url
	}
	hc := &http.Client{Timeout: *timeout}
	resp, err := hc.Get(url)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch %s: %s", url, resp.Status)
	}
	var doc metricz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return doc, nil
}

// metricz is a decoded /metricz document, read by key path. A key the node
// does not serve reads as nil, or zero.
type metricz map[string]any

func (m metricz) get(path ...string) any {
	var cur any = map[string]any(m)
	for _, k := range path {
		obj, _ := cur.(map[string]any)
		cur = obj[k]
	}
	return cur
}

func (m metricz) int(path ...string) int64 {
	f, _ := m.get(path...).(float64)
	return int64(f)
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// localAssess runs the two-phase assessment offline over a JSON-lines
// history file (the ledger / WriteJSONLines format), without contacting a
// server — useful for auditing exported histories. Its window and
// calibration seed are trustd's defaults, so it returns the verdict a
// trustd started with the same -scheme, -trust and -lambda serves.
func localAssess(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("local-assess", flag.ContinueOnError)
	var (
		file      = fs.String("file", "", "JSON-lines feedback file")
		server    = fs.String("server", "", "server to assess (empty = sole server in the file)")
		scheme    = fs.String("scheme", core.DefaultSpec.Scheme, "none | single | multi | collusion | collusion-multi")
		trustName = fs.String("trust", core.DefaultSpec.Trust, "average | weighted | beta")
		lambda    = fs.Float64("lambda", core.DefaultSpec.Lambda, "lambda for weighted")
		threshold = fs.Float64("threshold", 0.9, "trust threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("local-assess: missing -file")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	recs, err := feedback.ReadJSONLines(f)
	if err != nil {
		return fmt.Errorf("read %s: %w", *file, err)
	}
	st := store.New()
	if _, err := st.AddAll(recs); err != nil {
		return err
	}
	target := feedback.EntityID(*server)
	if target == "" {
		servers := st.Servers()
		if len(servers) != 1 {
			return fmt.Errorf("file contains %d servers %v; pass -server", len(servers), servers)
		}
		target = servers[0]
	}
	h, err := st.History(target)
	if err != nil {
		return err
	}
	if h.Len() == 0 {
		return fmt.Errorf("no records for %q", target)
	}

	spec := core.DefaultSpec
	spec.Scheme, spec.Trust, spec.Lambda = *scheme, *trustName, *lambda
	assessor, err := spec.Build()
	if err != nil {
		return err
	}
	accept, a, err := assessor.Accept(h, *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "server %q: %d transactions, good ratio %.3f\n", target, h.Len(), h.GoodRatio())
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Accept     bool            `json:"accept"`
		Assessment core.Assessment `json:"assessment"`
	}{accept, a}); err != nil {
		return err
	}
	return nil
}

// ledgerInfo inspects a ledger directory offline: segment layout,
// sealed/active sizes, record counts, snapshot sequence, and full checksum
// verification of every segment and snapshot.
func ledgerInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger-info", flag.ContinueOnError)
	var (
		path    = fs.String("path", "", "ledger directory")
		asJSON  = fs.Bool("json", false, "emit the full report as JSON")
		verbose = fs.Bool("v", false, "list every segment and snapshot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("ledger-info: missing -path")
	}
	info, err := ledger.Inspect(*path)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	}

	fmt.Fprintf(out, "%s: segmented ledger\n", info.Path)
	var sealed int
	var sealedBytes, activeBytes int64
	for _, seg := range info.Segments {
		if seg.Sealed {
			sealed++
			sealedBytes += seg.Size
		} else {
			activeBytes += seg.Size
		}
	}
	fmt.Fprintf(out, "  segments: %d (%d sealed, %d bytes sealed, %d bytes unsealed)\n",
		len(info.Segments), sealed, sealedBytes, activeBytes)
	fmt.Fprintf(out, "  records: %d verified\n", info.Records)
	if info.TruncatedBytes > 0 {
		fmt.Fprintf(out, "  CORRUPTION: %d bytes fail verification (next open truncates to the intact prefix)\n",
			info.TruncatedBytes)
	} else {
		fmt.Fprintln(out, "  checksums: all segments verify")
	}
	if n := len(info.Snapshots); n > 0 {
		latest := info.Snapshots[n-1]
		status := "valid"
		if !latest.Valid {
			status = "INVALID: " + latest.Error
		}
		fmt.Fprintf(out, "  snapshots: %d (latest seq %d: %s, %d servers, %d records, covers segments < %d)\n",
			n, latest.Seq, status, latest.Servers, latest.Records, latest.CoveredSegment)
	} else {
		fmt.Fprintln(out, "  snapshots: none (next boot replays the whole ledger)")
	}
	if *verbose {
		for _, seg := range info.Segments {
			state := "active"
			if seg.Sealed {
				state = "sealed"
			}
			fmt.Fprintf(out, "    segment %06d: %s, %d bytes, %d records in %d blocks (%.1f bytes each)",
				seg.Index, state, seg.Size, seg.Records, seg.Blocks, seg.BytesPerRecord)
			if seg.Truncated > 0 {
				fmt.Fprintf(out, ", %d bytes CORRUPT", seg.Truncated)
			}
			fmt.Fprintln(out)
		}
		for _, sn := range info.Snapshots {
			if sn.Valid {
				fmt.Fprintf(out, "    snapshot %d: version %d, valid, %d bytes, %d servers, %d records (%.1f section bytes each)\n",
					sn.Seq, sn.Version, sn.Size, sn.Servers, sn.Records, sn.SectionBytesPerRecord)
			} else {
				fmt.Fprintf(out, "    snapshot %d: version %d, INVALID (%s)\n", sn.Seq, sn.Version, sn.Error)
			}
		}
	}
	return nil
}
