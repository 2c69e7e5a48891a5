package contract

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/core"
)

var update = flag.Bool("update", false, "write testdata/owner.json and testdata/cloud.json when missing, and rewrite testdata/gas.golden")

var (
	goldenOwnerPath = filepath.Join("testdata", "owner.json")
	goldenCloudPath = filepath.Join("testdata", "cloud.json")
	goldenGasPath   = filepath.Join("testdata", "gas.golden")
)

// goldenDeployment loads the checked-in owner and cloud. Their keys,
// ciphertexts and witnesses are fixed, so the same query yields the same
// tokens, calldata and gas on every run. -update creates them once, through
// Owner.Marshal and Cloud.Marshal, when they are missing.
func goldenDeployment(t *testing.T) (*core.Owner, *core.Cloud) {
	t.Helper()
	if *update {
		if _, err := os.Stat(goldenOwnerPath); errors.Is(err, fs.ErrNotExist) {
			writeGoldenDeployment(t)
		}
	}
	ob, err := os.ReadFile(goldenOwnerPath)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := core.UnmarshalOwner(ob)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(goldenCloudPath)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := core.UnmarshalCloud(cb)
	if err != nil {
		t.Fatal(err)
	}
	return owner, cloud
}

func writeGoldenDeployment(t *testing.T) {
	t.Helper()
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]core.Record{
		core.NewRecord(1, 5), core.NewRecord(2, 8), core.NewRecord(3, 5), core.NewRecord(4, 42),
		core.NewRecord(5, 200), core.NewRecord(6, 97), core.NewRecord(7, 130), core.NewRecord(8, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := owner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cloud.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenOwnerPath, ob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenCloudPath, cb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGasGolden pins the gas and return data of honest fair-exchange rounds
// on a fresh chain: an equality, two order queries and a merged two-sided
// range (the token lists of "> 5" and "< 151" in one request, as
// Scheme.RangeSearch sends them), each under a fixed request id. A change to
// the verifier or the codec that moves one charge shows up here.
func TestGasGolden(t *testing.T) {
	owner, cloud := goldenDeployment(t)
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	ownerAddr := chain.AddressFromString("owner")
	userAddr := chain.AddressFromString("user")
	cloudAddr := chain.AddressFromString("cloud")
	registry := chain.NewRegistry()
	if err := Register(registry); err != nil {
		t.Fatal(err)
	}
	network, err := chain.NewNetwork(registry, []chain.Address{chain.AddressFromString("validator-0")},
		map[chain.Address]uint64{ownerAddr: 1_000_000, userAddr: 1_000_000, cloudAddr: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	mine := func(tx *chain.Transaction) *chain.Receipt {
		t.Helper()
		tx.Nonce = network.Leader().NextNonce(tx.From)
		if err := network.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := network.Step(); err != nil {
			t.Fatal(err)
		}
		r, ok := network.Leader().Receipt(tx.Hash())
		if !ok || !r.Status {
			t.Fatalf("transaction failed: %+v", r)
		}
		return r
	}
	deploy := mine(DeployTx(ownerAddr, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 5_000_000))

	// Order tokens come shuffled; sorting them by encoding fixes the tokens
	// hash, and with it the bytes of the escrow calldata.
	token := func(q core.Query) []core.SearchToken {
		req, err := user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		enc := func(tok core.SearchToken) string {
			b, err := EncodeToken(nil, tok)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		sort.Slice(req.Tokens, func(i, j int) bool { return enc(req.Tokens[i]) < enc(req.Tokens[j]) })
		return req.Tokens
	}
	queries := []struct {
		name   string
		tokens []core.SearchToken
	}{
		{"equal 5", token(core.Equal(5))},
		{"less 100", token(core.Less(100))},
		{"greater 4", token(core.Greater(4))},
		{"range 6..150", append(token(core.Greater(5)), token(core.Less(151))...)},
	}
	var out strings.Builder
	fmt.Fprintf(&out, "deploy gas %d\n", deploy.GasUsed)
	for _, q := range queries {
		req := &core.SearchRequest{Tokens: q.tokens}
		th, err := TokensHash(req.Tokens)
		if err != nil {
			t.Fatal(err)
		}
		reqID := chain.HashBytes([]byte("golden/" + q.name))
		escrow := mine(&chain.Transaction{From: userAddr, To: deploy.ContractAddress, Value: 1000,
			GasLimit: 1_000_000, Data: RequestData(reqID, cloudAddr, th)})
		resp, err := cloud.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := SubmitData(reqID, owner.AccumulatorPub().Marshal(), owner.Ac(), resp.Results)
		if err != nil {
			t.Fatal(err)
		}
		submit := mine(&chain.Transaction{From: cloudAddr, To: deploy.ContractAddress,
			GasLimit: 10_000_000, Data: data})
		fmt.Fprintf(&out, "%s: %d tokens, escrow gas %d, submit gas %d, return %x\n",
			q.name, len(req.Tokens), escrow.GasUsed, submit.GasUsed, submit.ReturnData)
	}

	if *update {
		if err := os.WriteFile(goldenGasPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenGasPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("gas differs from %s:\ngot:\n%swant:\n%s", goldenGasPath, out.String(), want)
	}
}
