package contract

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"slicer/internal/accumulator"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/hprime"
	"slicer/internal/mhash"
)

// serialVerify is the contract's Algorithm 5 before the fan-out, kept as the
// oracle: token after token, each charged as its work happens, stopping at
// the first invalid token or the first charge that fails.
func serialVerify(pp *accumulator.PublicParams, ac *big.Int, results []core.TokenResult, m core.Charges) (int, error) {
	for i, res := range results {
		if ok, err := serialToken(pp, ac, res, m); err != nil || !ok {
			return i, err
		}
	}
	return -1, nil
}

func serialToken(pp *accumulator.PublicParams, ac *big.Int, res core.TokenResult, m core.Charges) (bool, error) {
	h := mhash.Empty()
	for _, er := range res.ER {
		var attempts int
		h, attempts = h.AddCount(er)
		for ; attempts > 0; attempts-- {
			if err := m.ChargeHash(len(er)); err != nil {
				return false, err
			}
		}
		if err := m.ChargeFieldMul(); err != nil {
			return false, err
		}
	}
	tok := res.Token
	var epoch [8]byte
	binary.BigEndian.PutUint64(epoch[:], uint64(tok.Epoch))
	x, probes := hprime.HashConcatCount(tok.Trapdoor, epoch[:], tok.G1, tok.G2, h.Marshal())
	if err := m.ChargeHash(len(tok.Trapdoor) + 8 + len(tok.G1) + len(tok.G2) + mhash.Size); err != nil {
		return false, err
	}
	for ; probes > 0; probes-- {
		if err := m.ChargeHash(hprime.PrimeBytes); err != nil {
			return false, err
		}
	}
	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	for i := 0; i < 3; i++ {
		if err := m.ChargeModExp(hprime.PrimeBytes, hprime.PrimeBytes, xm1); err != nil {
			return false, err
		}
	}
	w, err := pp.DecodeValue(res.Witness)
	if err != nil {
		return false, nil
	}
	if err := m.ChargeModExp(len(res.Witness), pp.Size(), x); err != nil {
		return false, err
	}
	return pp.VerifyMem(ac, x, w), nil
}

// gasTrace records the gas a call has used after each charge that succeeds:
// the charge boundaries of a submission.
type gasTrace struct {
	ctx  *chain.CallCtx
	used *[]uint64
}

func (g gasTrace) note(err error) error {
	if err == nil {
		*g.used = append(*g.used, g.ctx.GasUsed())
	}
	return err
}

func (g gasTrace) ChargeHash(n int) error { return g.note(g.ctx.ChargeHash(n)) }
func (g gasTrace) ChargeFieldMul() error  { return g.note(g.ctx.ChargeFieldMul()) }
func (g gasTrace) ChargeModExp(b, m int, e *big.Int) error {
	return g.note(g.ctx.ChargeModExp(b, m, e))
}

// orderDeployment answers core.Greater(0) on 8 bits with one token per
// count: counts[i] records lie in [2^(7-i), 2^(8-i)), the range of the
// token for bit i.
type orderDeployment struct {
	owner   *core.Owner
	tokens  chain.Hash // the tokens hash the user escrows
	results []core.TokenResult
}

func newOrderDeployment(tb testing.TB, counts []int) *orderDeployment {
	tb.Helper()
	var db []core.Record
	for i, n := range counts {
		lo := uint64(128 >> i)
		for k := 0; k < n; k++ {
			db = append(db, core.NewRecord(uint64(len(db)+1), lo+uint64(k)%lo))
		}
	}
	f := newFixture(tb, db)
	req, err := f.user.Token(core.Greater(0))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := f.cloud.Search(req)
	if err != nil {
		tb.Fatal(err)
	}
	if len(resp.Results) != len(counts) {
		tb.Fatalf("%d results, want %d", len(resp.Results), len(counts))
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		tb.Fatal(err)
	}
	return &orderDeployment{owner: f.owner, tokens: th, results: resp.Results}
}

// outcome is what one submission leaves on chain.
type outcome struct {
	Status     bool
	GasUsed    uint64
	Err        string
	ReturnData []byte
	StateRoot  chain.Hash
}

// sweeper submits one response, under a given gas limit each time, to a
// contract on a one-validator chain, one block per submission; a request is
// escrowed in the same block whenever the last submission settled it.
type sweeper struct {
	tb                    testing.TB
	d                     *orderDeployment
	results               []core.TokenResult
	network               *chain.Network
	user, cloud, contract chain.Address
	nonces                map[chain.Address]uint64
	requests              int
	reqID                 chain.Hash
	pending               bool
}

func newSweeper(tb testing.TB, d *orderDeployment, results []core.TokenResult, factory chain.ContractFactory) *sweeper {
	tb.Helper()
	registry := chain.NewRegistry()
	if err := registry.Register(RuntimeID, factory); err != nil {
		tb.Fatal(err)
	}
	s := &sweeper{tb: tb, d: d, results: results, nonces: map[chain.Address]uint64{},
		user: chain.AddressFromString("user"), cloud: chain.AddressFromString("cloud")}
	owner := chain.AddressFromString("owner")
	var err error
	s.network, err = chain.NewNetwork(registry, []chain.Address{chain.AddressFromString("validator")},
		map[chain.Address]uint64{s.user: 1 << 40})
	if err != nil {
		tb.Fatal(err)
	}
	b := s.mine(DeployTx(owner, 0, d.owner.AccumulatorPub().Marshal(), d.owner.Ac(), 5_000_000))
	s.contract = b.Receipts[0].ContractAddress
	return s
}

// tx calls the contract from from at from's next nonce.
func (s *sweeper) tx(from chain.Address, value, gasLimit uint64, data []byte) *chain.Transaction {
	tx := &chain.Transaction{From: from, To: s.contract, Nonce: s.nonces[from], Value: value,
		GasLimit: gasLimit, Data: data}
	s.nonces[from]++
	return tx
}

// escrow is the user's request naming s.cloud, under a fresh request id.
func (s *sweeper) escrow() *chain.Transaction {
	// Request ids without zero bytes: every submission pays the same
	// intrinsic gas, so the charge boundaries stay put.
	s.requests++
	s.reqID = chain.HashBytes([]byte("sweep"), binary.BigEndian.AppendUint64(nil, uint64(s.requests)))
	for i, c := range s.reqID {
		if c == 0 {
			s.reqID[i] = 0xff
		}
	}
	s.pending = true
	return s.tx(s.user, 1, 1_000_000, RequestData(s.reqID, s.cloud, s.d.tokens))
}

func (s *sweeper) mine(txs ...*chain.Transaction) *chain.Block {
	for _, tx := range txs {
		if err := s.network.SubmitTx(tx); err != nil {
			s.tb.Fatal(err)
		}
	}
	b, err := s.network.Step()
	if err != nil {
		s.tb.Fatal(err)
	}
	for _, r := range b.Receipts[:len(b.Receipts)-1] {
		if !r.Status {
			s.tb.Fatalf("escrow reverted: %s", r.Err)
		}
	}
	return b
}

func (s *sweeper) submit(gasLimit uint64) outcome {
	var txs []*chain.Transaction
	if !s.pending {
		txs = append(txs, s.escrow())
	}
	txs = append(txs, s.tx(s.cloud, 0, gasLimit, s.submitData()))
	b := s.mine(txs...)
	r := b.Receipts[len(b.Receipts)-1]
	s.pending = !r.Status
	return outcome{r.Status, r.GasUsed, r.Err, r.ReturnData, b.Header.StateRoot}
}

func (s *sweeper) submitData() []byte {
	data, err := SubmitData(s.reqID, s.d.owner.AccumulatorPub().Marshal(), s.d.owner.Ac(), s.results)
	if err != nil {
		s.tb.Fatal(err)
	}
	return data
}

// TestFanOutMatchesSerialLoop submits a 5-token order response, honest and
// tampered, under the gas limit one below, at and one above every charge
// boundary of the serial loop, and at full gas: the fan-out must leave the
// same receipt and state root as the loop, at GOMAXPROCS 1 and 2.
func TestFanOutMatchesSerialLoop(t *testing.T) {
	d := newOrderDeployment(t, []int{80, 3, 65, 1, 2})
	dropER := func(i int) func([]core.TokenResult) {
		return func(rs []core.TokenResult) { rs[i].ER = rs[i].ER[1:] }
	}
	for _, c := range []struct {
		name   string
		tamper func([]core.TokenResult)
		ret    byte // 1 settles, 0 refunds
	}{
		{"honest", func([]core.TokenResult) {}, 1},
		{"er dropped at token 0", dropER(0), 0},
		{"er dropped at token 2", dropER(2), 0},
		{"er dropped at token 4", dropER(4), 0},
		{"flipped witness", func(rs []core.TokenResult) {
			rs[1].Witness = bytes.Clone(rs[1].Witness)
			rs[1].Witness[len(rs[1].Witness)-1] ^= 1
		}, 0},
		{"short witness", func(rs []core.TokenResult) { rs[3].Witness = rs[3].Witness[1:] }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			results := slices.Clone(d.results)
			c.tamper(results)
			var used []uint64
			oracle := newSweeper(t, d, results, func() chain.Contract {
				return &Slicer{verify: func(pp *accumulator.PublicParams, ac *big.Int, rs []core.TokenResult, m core.Meter) (int, error) {
					used = used[:0]
					return serialVerify(pp, ac, rs, gasTrace{m.(callMeter).CallCtx, &used})
				}}
			})
			const fullGas = 10_000_000
			want := []outcome{oracle.submit(fullGas)}
			if !want[0].Status || !bytes.Equal(want[0].ReturnData, []byte{c.ret}) {
				t.Fatalf("at full gas: %+v, want return data %d", want[0], c.ret)
			}
			limits := []uint64{fullGas}
			for _, b := range slices.Clone(used) {
				for _, l := range []uint64{b - 1, b, b + 1} {
					limits = append(limits, l)
					want = append(want, oracle.submit(l))
				}
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				fanOut := newSweeper(t, d, results, New)
				for i, l := range limits {
					if got := fanOut.submit(l); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("GOMAXPROCS %d, gas limit %d: fan-out %+v, serial loop %+v", procs, l, got, want[i])
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// TestSelfNamedCloudOutOfGas escrows a request that names its own sender as
// the cloud, for 40 tokens of its choosing, and submits for them 200 empty
// entries each and a one-valued witness: calldata of mostly zero bytes
// whose witness checks would cost far more than it. Under a gas limit that
// pays for the checks before verification and not for one token's floors,
// the submission runs out of gas, the escrow stays pending and no prime is
// derived, so no witness is checked. With the gas for all of them, every
// prime is derived, and the first witness refunds the request.
func TestSelfNamedCloudOutOfGas(t *testing.T) {
	d := newOrderDeployment(t, []int{1})
	one := make([]byte, d.owner.AccumulatorPub().Size())
	one[len(one)-1] = 1
	results := make([]core.TokenResult, 40)
	tokens := make([]core.SearchToken, len(results))
	for i := range results {
		seed := binary.BigEndian.AppendUint64([]byte("self-named"), uint64(i))
		h := chain.HashBytes(seed)
		tokens[i] = core.SearchToken{Trapdoor: h[:], Epoch: i, G1: h[:], G2: h[:]}
		results[i] = core.TokenResult{Token: tokens[i], ER: make([][]byte, 200), Witness: one}
	}
	var err error
	if d.tokens, err = TokensHash(tokens); err != nil {
		t.Fatal(err)
	}
	var gasLeft uint64 // at the start of verification
	s := newSweeper(t, d, results, func() chain.Contract {
		return &Slicer{verify: func(pp *accumulator.PublicParams, ac *big.Int, rs []core.TokenResult, m core.Meter) (int, error) {
			gasLeft = m.(callMeter).GasLeft()
			return core.VerifyResults(pp, ac, rs, m)
		}}
	})
	s.cloud = s.user
	hprime.SetCacheCapacity(hprime.DefaultCacheCapacity) // empties the memo of primes
	t.Cleanup(func() { hprime.SetCacheCapacity(hprime.DefaultCacheCapacity) })

	limit := chain.IntrinsicGas(s.submitData(), false) + 10_000
	if got := s.submit(limit); got.Status || !strings.Contains(got.Err, chain.ErrOutOfGas.Error()) {
		t.Fatalf("at gas limit %d: %+v, want out of gas", limit, got)
	}
	if gasLeft == 0 || gasLeft >= 200*(chain.HashGas(0)+chain.FieldMulGas) {
		t.Fatalf("verification started with %d gas left, want some and less than one token's entries", gasLeft)
	}
	if n := hprime.CacheLen(); n != 0 {
		t.Errorf("%d primes derived under gas for none", n)
	}
	if !s.pending {
		t.Error("escrow no longer pending")
	}
	if got := s.submit(10_000_000); !got.Status || !bytes.Equal(got.ReturnData, []byte{0}) {
		t.Fatalf("at full gas: %+v, want a refund", got)
	}
	if n := hprime.CacheLen(); n != len(results) {
		t.Errorf("%d primes derived at full gas, want %d", n, len(results))
	}
}

// BenchmarkSubmitResult executes one honest 5-token × 80-result submission
// per iteration on a fresh call context: a static call against a pending
// escrow, so every iteration settles the same request.
func BenchmarkSubmitResult(b *testing.B) {
	d := newOrderDeployment(b, []int{80, 80, 80, 80, 80})
	s := newSweeper(b, d, d.results, New)
	if r := s.mine(s.escrow()).Receipts[0]; !r.Status {
		b.Fatalf("escrow reverted: %s", r.Err)
	}
	data := s.submitData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ret, _, err := s.network.Leader().CallStatic(s.cloud, s.contract, data, 10_000_000)
		if err != nil || !bytes.Equal(ret, []byte{1}) {
			b.Fatalf("submission did not settle: %x, %v", ret, err)
		}
	}
}

// FuzzFanOutMatchesSerialLoop submits a response of 1–6 tokens, drawn with
// repeats from one deployment's results of 1 to 130 entries, tampered or
// not, first at full gas and then under a gas limit the input picks: a
// fraction of the way from the intrinsic gas to full, or one below, at or
// one above a charge boundary of the serial loop. The fan-out must leave
// the serial loop's receipts and state roots.
//
// picks[0] chooses the token count and each later byte one result; tamper%4
// is none, a dropped er, a flipped witness or a short witness, at token
// tamper/4; gas&1 selects a boundary (gas>>3, offset (gas>>1)&3) or a
// fraction (gas>>1 of 2^31).
func FuzzFanOutMatchesSerialLoop(f *testing.F) {
	pool := newOrderDeployment(f, []int{130, 65, 64, 63, 2, 1, 129, 3})
	f.Add([]byte{4, 0, 1, 2, 3, 4}, uint8(0), uint32(math.MaxUint32-1))
	f.Add([]byte{5, 6, 0, 5, 2, 7, 1}, uint8(1+4*5), uint32(math.MaxUint32-1))
	f.Add([]byte{2, 1, 2, 3}, uint8(2+4*1), uint32(9))
	f.Add([]byte{1, 6, 2}, uint8(3), uint32(41<<3|1<<1|1))
	f.Add([]byte{0, 0}, uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, picks []byte, tamper uint8, gas uint32) {
		if len(picks) == 0 {
			return
		}
		n := 1 + int(picks[0])%6
		results := make([]core.TokenResult, n)
		tokens := make([]core.SearchToken, n)
		for i := range results {
			p := 0
			if i+1 < len(picks) {
				p = int(picks[i+1]) % len(pool.results)
			}
			results[i] = pool.results[p]
			tokens[i] = results[i].Token
		}
		switch at := int(tamper/4) % n; tamper % 4 {
		case 1:
			results[at].ER = results[at].ER[1:]
		case 2:
			results[at].Witness = bytes.Clone(results[at].Witness)
			results[at].Witness[len(results[at].Witness)-1] ^= 1
		case 3:
			results[at].Witness = results[at].Witness[1:]
		}
		th, err := TokensHash(tokens)
		if err != nil {
			t.Fatal(err)
		}
		d := &orderDeployment{owner: pool.owner, tokens: th, results: results}

		var used []uint64
		oracle := newSweeper(t, d, results, func() chain.Contract {
			return &Slicer{verify: func(pp *accumulator.PublicParams, ac *big.Int, rs []core.TokenResult, m core.Meter) (int, error) {
				used = used[:0]
				return serialVerify(pp, ac, rs, gasTrace{m.(callMeter).CallCtx, &used})
			}}
		})
		const fullGas = 10_000_000
		limits := []uint64{fullGas, fullGas}
		want := []outcome{oracle.submit(fullGas)}
		if gas&1 == 1 && len(used) > 0 {
			limits[1] = used[int(gas>>3)%len(used)] + uint64((gas>>1)&3%3) - 1
		} else {
			lo := chain.IntrinsicGas(oracle.submitData(), false)
			limits[1] = lo + (fullGas-lo)*uint64(gas>>1)/(math.MaxUint32>>1)
		}
		want = append(want, oracle.submit(limits[1]))

		fanOut := newSweeper(t, d, results, New)
		for i, l := range limits {
			if got := fanOut.submit(l); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("gas limit %d: fan-out %+v, serial loop %+v", l, got, want[i])
			}
		}
	})
}
