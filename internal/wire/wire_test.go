package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/workload"
)

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := map[string]string{"hello": "world"}
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	var got map[string]string
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if got["hello"] != "world" {
		t.Errorf("round trip = %v", got)
	}
}

func TestFramingRejectsOversized(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var v any
	if err := ReadMessage(&hdr, &v); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: err=%v", err)
	}
}

// A peer that sends a header declaring the largest legal frame and then
// nothing must not make the reader allocate that frame.
func TestFramingAllocatesAsBodyArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var v json.RawMessage
	err := ReadMessage(bytes.NewReader([]byte{0x04, 0, 0, 0}), &v) // MaxMessageSize
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only frame parsed")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("header-only frame claiming %d bytes allocated %d bytes", MaxMessageSize, alloc)
	}
}

// Frames past the first body chunk grow to their declared length and parse
// back, also when the reader returns short reads; a body cut short fails.
func TestFramingLargeFrames(t *testing.T) {
	for _, n := range []int{firstBodyChunk, firstBodyChunk + 1, 5<<20 + 3} {
		var buf bytes.Buffer
		want := strings.Repeat("a", n-2) // a JSON string of n bytes
		if err := WriteMessage(&buf, want); err != nil {
			t.Fatal(err)
		}
		framed := buf.Bytes()
		var got string
		if err := ReadMessage(iotest.HalfReader(bytes.NewReader(framed)), &got); err != nil || got != want {
			t.Fatalf("%d-byte frame: err %v, round trip equal %v", n, err, got == want)
		}
		if err := ReadMessage(bytes.NewReader(framed[:len(framed)-1]), &got); err == nil {
			t.Fatalf("%d-byte frame missing its last byte parsed", n)
		}
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	srv := NewServer()
	srv.Handle("echo", func(params json.RawMessage) (any, error) {
		var s string
		if err := json.Unmarshal(params, &s); err != nil {
			return nil, err
		}
		return "echo:" + s, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	var out string
	if err := cli.Call("echo", "hi", &out); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out != "echo:hi" {
		t.Errorf("echo = %q", out)
	}
	// Unknown method surfaces as an error, connection stays usable.
	if err := cli.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method err = %v", err)
	}
	if err := cli.Call("echo", "again", &out); err != nil || out != "echo:again" {
		t.Errorf("connection unusable after error: %q %v", out, err)
	}
}

// TestCloudServerFullProtocol drives init / search / update / stats over a
// real TCP connection and cross-checks results against a local cloud.
func TestCloudServerFullProtocol(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	db := workload.Generate(workload.Config{N: 60, Bits: 8, Seed: 5})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	srv := NewCloudServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cli, err := DialCloud(addr)
	if err != nil {
		t.Fatalf("DialCloud: %v", err)
	}
	defer cli.Close()

	// Searching before init fails cleanly.
	if _, err := cli.Search(&core.SearchRequest{}); err == nil {
		t.Error("search before init succeeded")
	}
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if err := cli.Init(owner.CloudInit(built.Index), true); err == nil {
		t.Error("double init succeeded")
	}

	stats, err := cli.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.IndexEntries != built.Index.Len() {
		t.Errorf("remote index entries = %d, want %d", stats.IndexEntries, built.Index.Len())
	}

	q := core.Less(100)
	req, err := user.Token(q)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	resp, err := cli.Search(req)
	if err != nil {
		t.Fatalf("remote Search: %v", err)
	}
	if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatalf("remote response failed verification: %v", err)
	}
	gotIDs, err := user.Decrypt(resp)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	wantIDs := workload.Answer(db, q)
	if len(gotIDs) != len(wantIDs) {
		t.Errorf("remote search returned %d ids, want %d", len(gotIDs), len(wantIDs))
	}

	// Insert via the wire, then search again.
	up, err := owner.Insert([]core.Record{core.NewRecord(1000, 5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := cli.Update(up); err != nil {
		t.Fatalf("Update: %v", err)
	}
	user.UpdateStates(owner.StatesSnapshot())
	req, err = user.Token(core.Equal(5))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	resp, err = cli.Search(req)
	if err != nil {
		t.Fatalf("post-insert Search: %v", err)
	}
	if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatalf("post-insert verification: %v", err)
	}
	ids, err := user.Decrypt(resp)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	found := false
	for _, id := range ids {
		if id == 1000 {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted record not found remotely: %v", ids)
	}
}

// TestCloudServerConcurrentClients hammers one cloud server from several
// connections at once; the server must serialize correctly (run with
// -race).
func TestCloudServerConcurrentClients(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Generate(workload.Config{N: 40, Bits: 8, Seed: 6})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCloudServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	boot, err := DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	boot.Close()

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			user, err := core.NewUser(owner.ClientState())
			if err != nil {
				errs <- err
				return
			}
			cli, err := DialCloud(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for k := 0; k < 10; k++ {
				q := core.Query{Op: core.OpLess, Value: uint64(1 + (i*37+k*11)%255)}
				req, err := user.Token(q)
				if err != nil {
					errs <- err
					return
				}
				resp, err := cli.Search(req)
				if err != nil {
					errs <- err
					return
				}
				if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client error: %v", err)
		}
	}
}

func TestCloudServerSnapshotRestore(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	db := []core.Record{core.NewRecord(1, 7), core.NewRecord(2, 7)}
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	srv1 := NewCloudServer()
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli1, err := DialCloud(addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli1.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	snap, err := srv1.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	cli1.Close()
	srv1.Close()

	// "Restart": a fresh server restores the snapshot and keeps serving.
	srv2 := NewCloudServer()
	if err := srv2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2, err := DialCloud(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	req, err := user.Token(core.Equal(7))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli2.Search(req)
	if err != nil {
		t.Fatalf("restored Search: %v", err)
	}
	if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatalf("restored response rejected: %v", err)
	}
	// Restore after init is rejected.
	if err := srv2.Restore(snap); err == nil {
		t.Error("double restore accepted")
	}
	// Empty snapshot of an uninitialized server.
	srv3 := NewCloudServer()
	empty, err := srv3.Snapshot()
	if err != nil || empty != nil {
		t.Errorf("uninitialized snapshot = %v, %v", empty, err)
	}
}

func TestChainServerFullProtocol(t *testing.T) {
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	vals := []chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}
	network, err := chain.NewNetwork(registry, vals, map[chain.Address]uint64{alice: 5000})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewChainServer(network)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialChain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	nonce, err := cli.Nonce(alice)
	if err != nil || nonce != 0 {
		t.Fatalf("Nonce = %d, %v", nonce, err)
	}
	rc, err := cli.Mine(&chain.Transaction{
		From: alice, To: bob, Nonce: 0, Value: 1200, GasLimit: 100000,
	})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if !rc.Found || !rc.Status {
		t.Fatalf("receipt = %+v", rc)
	}
	bal, err := cli.Balance(bob)
	if err != nil || bal != 1200 {
		t.Errorf("Balance(bob) = %d, %v", bal, err)
	}
	h, err := cli.Height()
	if err != nil || h != 1 {
		t.Errorf("Height = %d, %v", h, err)
	}
}

// TestSearchAuditRecordCountsEntries reads back the audit record of one
// multi-token search: it names the request's tokens and its encrypted result
// entries, the count slicer_cloud_results_total adds.
func TestSearchAuditRecordCountsEntries(t *testing.T) {
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 60, Bits: 8, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	led, err := audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit"})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	reg := obs.NewRegistry()
	srv := NewCloudServer()
	srv.SetObservability(reg, nil)
	srv.EnableAudit(led)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatal(err)
	}

	req, err := user.Token(core.Less(200))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, res := range resp.Results {
		entries += len(res.ER)
	}
	if entries == len(req.Tokens) {
		t.Fatalf("%d entries for %d tokens: the search cannot tell the counts apart", entries, len(req.Tokens))
	}
	if n := reg.Counter("slicer_cloud_results_total", "").Value(); n != uint64(entries) {
		t.Errorf("slicer_cloud_results_total = %d, want %d", n, entries)
	}
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	var details []string
	for _, r := range led.Recent(0) {
		if r.Kind == audit.KindSearch {
			details = append(details, r.Detail)
		}
	}
	want := fmt.Sprintf("%d tokens, %d results (peer ", len(req.Tokens), entries)
	if len(details) != 1 || !strings.HasPrefix(details[0], want) {
		t.Errorf("search records %q, want one starting %q", details, want)
	}
}
