package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/wire"
)

// roundOut is what one fair-exchange round produced.
type roundOut struct {
	req        *core.SearchRequest
	resp       *core.SearchResponse
	ids        []uint64 // decrypted IDs; nil when the payment was refunded
	settled    bool
	gasRequest uint64
	gasSubmit  uint64
	calldata   int
	escrowSpan int // recorder indexes of two of the round's spans, -1 untraced
	searchSpan int
}

func (o *roundOut) results() int {
	n := 0
	for _, r := range o.resp.Results {
		n += len(r.ER)
	}
	return n
}

// round runs one paid search the way a user and a cloud do it (Fig. 1):
// escrow the fee with the token digest, search, submit results and proofs,
// let the contract settle or refund, decrypt what was paid for. It is the one
// unit every workload times, over whichever searcher and miner the topology
// supplied. tamper, when set, corrupts the response before submission.
func (s *system) round(q core.Query, op int, rec *recorder, tamper func(*core.SearchResponse) bool) (*roundOut, error) {
	var cloud searcher = s.cloud
	var ledger miner = s.chain
	out := &roundOut{}
	root, endRound := rec.span("slicer.round", op, -1)
	defer endRound()

	_, end := rec.span("core.token", op, root)
	req, err := s.user.Token(q)
	if err != nil {
		return nil, err
	}
	end()
	out.req = req

	_, end = rec.span("contract.tokens_hash", op, root)
	th, err := contract.TokensHash(req.Tokens)
	if err != nil {
		return nil, err
	}
	end()

	s.nextReq++
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], s.nextReq)
	reqID := chain.HashBytes([]byte("bench-request"), ctr[:])

	out.escrowSpan, end = rec.span("chain.escrow_mine", op, root)
	nonce, err := ledger.Nonce(userAcct)
	if err != nil {
		return nil, err
	}
	rc, err := ledger.Mine(&chain.Transaction{
		From: userAcct, To: s.contract, Nonce: nonce, Value: payment,
		GasLimit: 1_000_000, Data: contract.RequestData(reqID, cloudAcct, th),
	})
	if err != nil {
		return nil, err
	}
	if !rc.Status {
		return nil, fmt.Errorf("escrow reverted: %s", rc.Err)
	}
	end()
	s.requests++
	out.gasRequest = rc.GasUsed

	out.searchSpan, end = rec.span("serving.search", op, root)
	resp, err := cloud.Search(req)
	if err != nil {
		return nil, fmt.Errorf("cloud search: %w", err)
	}
	end()
	out.resp = resp
	if tamper != nil && !tamper(resp) {
		return nil, errors.New("tamper probe: the response has nothing to corrupt")
	}

	_, end = rec.span("contract.submit_encode", op, root)
	data, err := contract.SubmitData(reqID, s.accPub, s.owner.Ac(), resp.Results)
	if err != nil {
		return nil, err
	}
	end()
	out.calldata = len(data)

	_, end = rec.span("chain.settle_mine", op, root)
	if nonce, err = ledger.Nonce(cloudAcct); err != nil {
		return nil, err
	}
	rc, err = ledger.Mine(&chain.Transaction{
		From: cloudAcct, To: s.contract, Nonce: nonce, GasLimit: 50_000_000, Data: data,
	})
	if err != nil {
		return nil, err
	}
	if !rc.Status {
		return nil, fmt.Errorf("result submission reverted: %s", rc.Err)
	}
	end()
	out.gasSubmit = rc.GasUsed

	if len(rc.ReturnData) != 1 || rc.ReturnData[0] != 1 {
		return out, nil // refunded
	}
	out.settled = true
	s.settled++
	_, end = rec.span("core.decrypt", op, root)
	if out.ids, err = s.user.Decrypt(resp); err != nil {
		return nil, err
	}
	end()
	return out, nil
}

// insertOut is what one insert produced; update is the delta shipped to the
// cloud, kept so the reference cloud can apply the same one.
type insertOut struct {
	update     *core.UpdateOutput
	gasSetAc   uint64
	updateSpan int // recorder index of the serving.update span, -1 untraced
}

// insert adds a batch the way the owner does: index the records, ship the
// delta to the cloud, post the new accumulation value on chain, hand the user
// the new trapdoor states.
func (s *system) insert(records []core.Record, op int, rec *recorder) (*insertOut, error) {
	root, endInsert := rec.span("slicer.insert", op, -1)
	defer endInsert()

	_, endOwner := rec.span("core.owner_insert", op, root)
	up, err := s.owner.Insert(records)
	if err != nil {
		return nil, err
	}
	endOwner()

	updateSpan, end := rec.span("serving.update", op, root)
	if err := s.cloud.Update(up); err != nil {
		return nil, fmt.Errorf("cloud update: %w", err)
	}
	end()

	_, end = rec.span("chain.setac_mine", op, root)
	nonce, err := s.chain.Nonce(ownerAcct)
	if err != nil {
		return nil, err
	}
	rc, err := s.chain.Mine(&chain.Transaction{
		From: ownerAcct, To: s.contract, Nonce: nonce,
		GasLimit: 1_000_000, Data: contract.SetAcData(s.owner.Ac()),
	})
	if err != nil {
		return nil, err
	}
	if !rc.Status {
		return nil, fmt.Errorf("SetAc reverted: %s", rc.Err)
	}
	end()

	_, end = rec.span("core.update_states", op, root)
	s.user.UpdateStates(s.owner.StatesSnapshot())
	end()
	return &insertOut{update: up, gasSetAc: rc.GasUsed, updateSpan: updateSpan}, nil
}

// dropEntry and flipWitness are the two ways the tamper probe cheats: return
// one result fewer, or a proof that is off by one bit. Each reports whether
// the response had anything to corrupt.
func dropEntry(resp *core.SearchResponse) bool {
	for i := range resp.Results {
		if n := len(resp.Results[i].ER); n > 0 {
			resp.Results[i].ER = resp.Results[i].ER[:n-1]
			return true
		}
	}
	return false
}

func flipWitness(resp *core.SearchResponse) bool {
	if len(resp.Results) == 0 || len(resp.Results[0].Witness) == 0 {
		return false
	}
	w := resp.Results[0].Witness
	w[len(w)/2] ^= 1
	return true
}

// wireCost frames a search's request and response the way the wire package
// does and reports the framed sizes and the codec time, the same on every
// topology (an in-process round sends nothing, but would send this). Sizes
// are taken on every search-phase round, the decode time only on sampled ones.
type wireCost struct {
	reqBytes, respBytes int
	encodeUs, decodeUs  float64
}

func measureWire(req *core.SearchRequest, resp *core.SearchResponse, decode bool) (wireCost, error) {
	var c wireCost
	params, err := json.Marshal(req)
	if err != nil {
		return c, err
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, &wire.Request{Method: wire.MethodCloudSearch, Params: params}); err != nil {
		return c, err
	}
	c.reqBytes = buf.Len()

	buf.Reset()
	t0 := time.Now()
	result, err := json.Marshal(resp)
	if err != nil {
		return c, err
	}
	if err := wire.WriteMessage(&buf, &wire.Response{Result: result}); err != nil {
		return c, err
	}
	c.encodeUs = float64(time.Since(t0)) / 1e3
	c.respBytes = buf.Len()
	if !decode {
		return c, nil
	}

	t0 = time.Now()
	var framed wire.Response
	if err := wire.ReadMessage(&buf, &framed); err != nil {
		return c, err
	}
	var back core.SearchResponse
	if err := json.Unmarshal(framed.Result, &back); err != nil {
		return c, err
	}
	c.decodeUs = float64(time.Since(t0)) / 1e3
	if len(back.Results) != len(resp.Results) {
		return c, errors.New("wire round trip lost results")
	}
	return c, nil
}

// shadowCost is what the reference cloud measured for one request.
type shadowCost struct {
	collectUs, witnessUs, verifyUs float64
}

// shadow replays a round's request on the reference cloud, one public call
// per phase, checks that the live response is byte-identical to the
// reference's and that it verifies off chain.
func (s *system) shadow(out *roundOut) (shadowCost, error) {
	var c shadowCost
	t0 := time.Now()
	ref, err := s.ref.SearchResults(out.req)
	if err != nil {
		return c, err
	}
	c.collectUs = float64(time.Since(t0)) / 1e3
	t0 = time.Now()
	if err := s.ref.AttachWitnesses(ref); err != nil {
		return c, err
	}
	c.witnessUs = float64(time.Since(t0)) / 1e3

	want, err := json.Marshal(ref)
	if err != nil {
		return c, err
	}
	got, err := json.Marshal(out.resp)
	if err != nil {
		return c, err
	}
	if !bytes.Equal(got, want) {
		return c, errors.New("live response differs from the reference cloud's")
	}
	t0 = time.Now()
	if err := core.VerifyResponse(s.owner.AccumulatorPub(), s.owner.Ac(), out.req, out.resp); err != nil {
		return c, err
	}
	c.verifyUs = float64(time.Since(t0)) / 1e3
	return c, nil
}
