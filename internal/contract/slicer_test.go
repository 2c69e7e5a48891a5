package contract

import (
	"testing"

	"slicer/internal/chain"
	"slicer/internal/core"
)

// fixture wires a Slicer deployment to a 3-validator chain network.
type fixture struct {
	t       testing.TB
	network *chain.Network
	owner   *core.Owner
	user    *core.User
	cloud   *core.Cloud

	ownerAddr, userAddr, cloudAddr chain.Address
	contractAddr                   chain.Address
}

func newFixture(t testing.TB, db []core.Record) *fixture {
	t.Helper()
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessCached)
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	f := &fixture{
		t:         t,
		owner:     owner,
		user:      user,
		cloud:     cloud,
		ownerAddr: chain.AddressFromString("owner"),
		userAddr:  chain.AddressFromString("user"),
		cloudAddr: chain.AddressFromString("cloud"),
	}
	registry := chain.NewRegistry()
	if err := Register(registry); err != nil {
		t.Fatalf("Register: %v", err)
	}
	validators := []chain.Address{
		chain.AddressFromString("validator-0"),
		chain.AddressFromString("validator-1"),
		chain.AddressFromString("validator-2"),
	}
	f.network, err = chain.NewNetwork(registry, validators, map[chain.Address]uint64{
		f.ownerAddr: 1_000_000,
		f.userAddr:  1_000_000,
		f.cloudAddr: 1_000_000,
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}

	// Deploy the contract.
	tx := DeployTx(f.ownerAddr, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 5_000_000)
	r := f.mine(tx)
	if !r.Status {
		t.Fatalf("deployment reverted: %s", r.Err)
	}
	f.contractAddr = r.ContractAddress
	return f
}

// mine submits a tx, seals a block on the scheduled proposer and returns
// the receipt.
func (f *fixture) mine(tx *chain.Transaction) *chain.Receipt {
	f.t.Helper()
	if err := f.network.SubmitTx(tx); err != nil {
		f.t.Fatalf("SubmitTx: %v", err)
	}
	if _, err := f.network.Step(); err != nil {
		f.t.Fatalf("Step: %v", err)
	}
	r, ok := f.network.Leader().Receipt(tx.Hash())
	if !ok {
		f.t.Fatalf("no receipt for tx")
	}
	return r
}

func (f *fixture) nonce(a chain.Address) uint64 {
	return f.network.Leader().NextNonce(a)
}

// requestAndSubmit runs the full fair-exchange flow for one query: escrow,
// cloud search, result submission. tamper mutates the response before
// submission when non-nil.
func (f *fixture) requestAndSubmit(q core.Query, payment uint64, tamper func(*core.SearchResponse)) (*chain.Receipt, chain.Hash) {
	f.t.Helper()
	req, err := f.user.Token(q)
	if err != nil {
		f.t.Fatalf("Token: %v", err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		f.t.Fatalf("TokensHash: %v", err)
	}
	reqID := chain.HashBytes([]byte("request"), th[:])
	r := f.mine(&chain.Transaction{
		From:     f.userAddr,
		To:       f.contractAddr,
		Nonce:    f.nonce(f.userAddr),
		Value:    payment,
		GasLimit: 1_000_000,
		Data:     RequestData(reqID, f.cloudAddr, th),
	})
	if !r.Status {
		f.t.Fatalf("request reverted: %s", r.Err)
	}

	resp, err := f.cloud.Search(req)
	if err != nil {
		f.t.Fatalf("Search: %v", err)
	}
	if tamper != nil {
		tamper(resp)
	}
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), resp.Results)
	if err != nil {
		f.t.Fatalf("SubmitData: %v", err)
	}
	return f.mine(&chain.Transaction{
		From:     f.cloudAddr,
		To:       f.contractAddr,
		Nonce:    f.nonce(f.cloudAddr),
		GasLimit: 10_000_000,
		Data:     data,
	}), reqID
}

func (f *fixture) requestStatus(reqID chain.Hash) int {
	f.t.Helper()
	ret, _, err := f.network.Leader().CallStatic(
		f.userAddr, f.contractAddr, append([]byte{MethodGetRequest}, reqID[:]...), 1_000_000)
	if err != nil {
		f.t.Fatalf("GetRequest: %v", err)
	}
	return int(ret[0])
}

var testDB = []core.Record{
	core.NewRecord(1, 5), core.NewRecord(2, 8), core.NewRecord(3, 5),
	core.NewRecord(4, 42), core.NewRecord(5, 200),
}

func TestFairExchangeHonestCloud(t *testing.T) {
	f := newFixture(t, testDB)
	const payment = 1000
	cloudBefore := f.network.Leader().Balance(f.cloudAddr)
	userBefore := f.network.Leader().Balance(f.userAddr)

	r, reqID := f.requestAndSubmit(core.Equal(5), payment, nil)
	if !r.Status {
		t.Fatalf("submit reverted: %s", r.Err)
	}
	if len(r.ReturnData) != 1 || r.ReturnData[0] != 1 {
		t.Fatalf("verification did not pass: return %x", r.ReturnData)
	}
	if got := f.requestStatus(reqID); got != StatusSettled {
		t.Errorf("request status = %d, want settled (%d)", got, StatusSettled)
	}
	if got := f.network.Leader().Balance(f.cloudAddr); got != cloudBefore+payment {
		t.Errorf("cloud balance = %d, want %d (payment settled)", got, cloudBefore+payment)
	}
	if got := f.network.Leader().Balance(f.userAddr); got != userBefore-payment {
		t.Errorf("user balance = %d, want %d", got, userBefore-payment)
	}

	// A malicious user cannot repudiate: the settlement already happened on
	// chain, and resubmission is rejected.
	resp, _ := f.cloud.Search(&core.SearchRequest{})
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), resp.Results)
	if err != nil {
		t.Fatalf("SubmitData: %v", err)
	}
	r2 := f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr,
		Nonce: f.nonce(f.cloudAddr), GasLimit: 10_000_000, Data: data,
	})
	if r2.Status {
		t.Error("resubmission against a settled request succeeded")
	}
}

func TestFairExchangeMaliciousCloudRefunded(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(*core.SearchResponse)
	}{
		{"drop-record", func(r *core.SearchResponse) {
			r.Results[0].ER = r.Results[0].ER[:len(r.Results[0].ER)-1]
		}},
		{"forge-record", func(r *core.SearchResponse) {
			fake := append([]byte(nil), r.Results[0].ER[0]...)
			fake[5] ^= 0xff
			r.Results[0].ER = append(r.Results[0].ER, fake)
		}},
		{"corrupt-witness", func(r *core.SearchResponse) {
			r.Results[0].Witness[0] ^= 0x01
		}},
		{"swap-token", func(r *core.SearchResponse) {
			r.Results[0].Token.Epoch++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, testDB)
			const payment = 1000
			userBefore := f.network.Leader().Balance(f.userAddr)
			cloudBefore := f.network.Leader().Balance(f.cloudAddr)

			r, reqID := f.requestAndSubmit(core.Equal(5), payment, tc.tamper)
			if !r.Status {
				t.Fatalf("submit reverted (should refund, not revert): %s", r.Err)
			}
			if len(r.ReturnData) != 1 || r.ReturnData[0] != 0 {
				t.Fatalf("tampered results passed on-chain verification")
			}
			if got := f.requestStatus(reqID); got != StatusRefunded {
				t.Errorf("request status = %d, want refunded (%d)", got, StatusRefunded)
			}
			if got := f.network.Leader().Balance(f.userAddr); got != userBefore {
				t.Errorf("user balance = %d, want %d (refund)", got, userBefore)
			}
			if got := f.network.Leader().Balance(f.cloudAddr); got != cloudBefore {
				t.Errorf("cloud balance = %d, want %d (no payment)", got, cloudBefore)
			}
		})
	}
}

func TestStaleAcRejectedOnChain(t *testing.T) {
	f := newFixture(t, testDB)
	staleAc := f.owner.Ac()

	// Owner inserts a record and refreshes the on-chain digest.
	out, err := f.owner.Insert([]core.Record{core.NewRecord(6, 5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := f.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	f.user.UpdateStates(f.owner.StatesSnapshot())
	r := f.mine(&chain.Transaction{
		From: f.ownerAddr, To: f.contractAddr,
		Nonce: f.nonce(f.ownerAddr), GasLimit: 1_000_000,
		Data: SetAcData(f.owner.Ac()),
	})
	if !r.Status {
		t.Fatalf("SetAc reverted: %s", r.Err)
	}

	// A cloud replaying the stale Ac must be rejected outright.
	req, err := f.user.Token(core.Equal(5))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		t.Fatalf("TokensHash: %v", err)
	}
	reqID := chain.HashBytes([]byte("stale-request"))
	if rr := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 500, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th),
	}); !rr.Status {
		t.Fatalf("request reverted: %s", rr.Err)
	}
	resp, err := f.cloud.Search(req)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), staleAc, resp.Results)
	if err != nil {
		t.Fatalf("SubmitData: %v", err)
	}
	rr := f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr,
		Nonce: f.nonce(f.cloudAddr), GasLimit: 10_000_000, Data: data,
	})
	if rr.Status {
		t.Error("stale Ac accepted by the contract")
	}

	// With the fresh Ac the same flow settles.
	data, err = SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), resp.Results)
	if err != nil {
		t.Fatalf("SubmitData: %v", err)
	}
	rr = f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr,
		Nonce: f.nonce(f.cloudAddr), GasLimit: 10_000_000, Data: data,
	})
	if !rr.Status || rr.ReturnData[0] != 1 {
		t.Errorf("fresh Ac submission failed: status=%v err=%s", rr.Status, rr.Err)
	}
}

func TestOnlyOwnerMaySetAc(t *testing.T) {
	f := newFixture(t, testDB)
	r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr,
		Nonce: f.nonce(f.userAddr), GasLimit: 1_000_000,
		Data: SetAcData(f.owner.Ac()),
	})
	if r.Status {
		t.Error("non-owner SetAc succeeded")
	}
}

func TestGasCosts(t *testing.T) {
	f := newFixture(t, testDB)

	// Deployment gas from the fixture's deploy receipt.
	deployReceipt, ok := f.network.Leader().Receipt(
		DeployTx(f.ownerAddr, 0, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), 5_000_000).Hash())
	if !ok {
		t.Fatal("deployment receipt missing")
	}

	// Steady-state data insertion (digest reset, not first set).
	out, err := f.owner.Insert([]core.Record{core.NewRecord(10, 7)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := f.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	f.user.UpdateStates(f.owner.StatesSnapshot())
	insertReceipt := f.mine(&chain.Transaction{
		From: f.ownerAddr, To: f.contractAddr,
		Nonce: f.nonce(f.ownerAddr), GasLimit: 1_000_000,
		Data: SetAcData(f.owner.Ac()),
	})
	if !insertReceipt.Status {
		t.Fatalf("SetAc reverted: %s", insertReceipt.Err)
	}

	verifyReceipt, _ := f.requestAndSubmit(core.Equal(5), 1000, nil)
	if !verifyReceipt.Status {
		t.Fatalf("submit reverted: %s", verifyReceipt.Err)
	}

	t.Logf("gas: deployment=%d insertion=%d verification=%d",
		deployReceipt.GasUsed, insertReceipt.GasUsed, verifyReceipt.GasUsed)

	// Sanity bands: same orders of magnitude as the paper's Table II
	// (745,346 / 29,144 / 94,531 gas).
	if deployReceipt.GasUsed < 200_000 || deployReceipt.GasUsed > 2_000_000 {
		t.Errorf("deployment gas %d outside plausible band", deployReceipt.GasUsed)
	}
	if insertReceipt.GasUsed < 21_000 || insertReceipt.GasUsed > 60_000 {
		t.Errorf("insertion gas %d outside plausible band", insertReceipt.GasUsed)
	}
	if verifyReceipt.GasUsed < 30_000 || verifyReceipt.GasUsed > 400_000 {
		t.Errorf("verification gas %d outside plausible band", verifyReceipt.GasUsed)
	}
	// The paper's headline: insertion is cheap and constant; verification
	// costs a small multiple of it; deployment dominates both.
	if insertReceipt.GasUsed >= verifyReceipt.GasUsed {
		t.Errorf("insertion gas %d should be below verification gas %d",
			insertReceipt.GasUsed, verifyReceipt.GasUsed)
	}
	if verifyReceipt.GasUsed >= deployReceipt.GasUsed {
		t.Errorf("verification gas %d should be below deployment gas %d",
			verifyReceipt.GasUsed, deployReceipt.GasUsed)
	}
}
