package contract

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"

	"slicer/internal/accumulator"
	"slicer/internal/chain"
	"slicer/internal/core"
)

// RuntimeID identifies the Slicer contract runtime in the chain registry.
const RuntimeID = "slicerV1"

// Method selectors (first calldata byte).
const (
	MethodSetAc        = 0x01 // owner: store digest of the new Ac
	MethodRequest      = 0x02 // user: escrow payment for a search
	MethodSubmitResult = 0x03 // cloud: submit results + proofs for verification
	MethodGetAcDigest  = 0x04 // static: read the current Ac digest
	MethodGetRequest   = 0x05 // static: read a request's status
	MethodAuthorize    = 0x06 // owner: grant/revoke a data user in restricted mode
	MethodSetMode      = 0x07 // owner: toggle restricted mode
	MethodIsAuthorized = 0x08 // static: read an address's authorization
)

// Request statuses.
const (
	StatusNone     = 0
	StatusPending  = 1
	StatusSettled  = 2
	StatusRefunded = 3
)

// Storage slots.
var (
	slotOwner        = chain.SlotOf("owner")
	slotAcDigest     = chain.SlotOf("acDigest")
	slotAcUpdates    = chain.SlotOf("acUpdates")
	slotParamsDigest = chain.SlotOf("paramsDigest")
	slotRestricted   = chain.SlotOf("restricted")
)

func authSlot(user chain.Address) chain.Slot {
	return chain.SlotOf("auth", user[:])
}

func requestSlot(reqID chain.Hash, field string) chain.Slot {
	return chain.SlotOf("req/"+field, reqID[:])
}

// Event topics.
var (
	TopicAcUpdated = chain.HashBytes([]byte("event/AcUpdated"))
	TopicRequested = chain.HashBytes([]byte("event/SearchRequested"))
	TopicSettled   = chain.HashBytes([]byte("event/PaymentSettled"))
	TopicRefunded  = chain.HashBytes([]byte("event/PaymentRefunded"))
)

// Slicer is the verification/escrow contract. It holds no state in Go:
// everything lives in metered chain storage. verify is Algorithm 5,
// core.VerifyResults; a test may put the serial loop it replaced beside it.
type Slicer struct {
	verify func(*accumulator.PublicParams, *big.Int, []core.TokenResult, core.Meter) (int, error)
}

var _ chain.Contract = (*Slicer)(nil)

// callMeter charges Algorithm 5 to the call's gas.
type callMeter struct{ *chain.CallCtx }

func (m callMeter) Fresh() core.Charges { return chain.NewMeter(m.GasLeft()) }

// New constructs the runtime (chain.ContractFactory).
func New() chain.Contract { return &Slicer{verify: core.VerifyResults} }

// Register binds the runtime into a chain registry.
func Register(reg *chain.Registry) error { return reg.Register(RuntimeID, New) }

// InitData assembles constructor arguments: the owner address, the digest
// of the accumulator public parameters, and the digest of the initial Ac.
func InitData(owner chain.Address, accParams []byte, ac *big.Int) []byte {
	pd := chain.HashBytes(accParams)
	ad := chain.HashBytes(ac.Bytes())
	out := make([]byte, 0, 20+64)
	out = append(out, owner[:]...)
	out = append(out, pd[:]...)
	return append(out, ad[:]...)
}

// Init stores the owner and the two digests.
func (s *Slicer) Init(ctx *chain.CallCtx, initData []byte) error {
	if len(initData) != 20+32+32 {
		return fmt.Errorf("contract: constructor wants 84 bytes, got %d", len(initData))
	}
	var owner chain.Slot
	copy(owner[12:], initData[:20])
	if err := ctx.SStore(slotOwner, owner); err != nil {
		return err
	}
	if err := ctx.SStore(slotParamsDigest, chain.Slot(initData[20:52])); err != nil {
		return err
	}
	if err := ctx.SStore(slotAcDigest, chain.Slot(initData[52:84])); err != nil {
		return err
	}
	return ctx.SStore(slotAcUpdates, chain.U64Slot(0))
}

// Call dispatches a method invocation.
func (s *Slicer) Call(ctx *chain.CallCtx, input []byte) ([]byte, error) {
	if len(input) == 0 {
		return nil, errors.New("contract: empty calldata")
	}
	switch input[0] {
	case MethodSetAc:
		return s.setAc(ctx, input[1:])
	case MethodRequest:
		return s.request(ctx, input[1:])
	case MethodSubmitResult:
		return s.submitResult(ctx, input[1:])
	case MethodGetAcDigest:
		return s.getAcDigest(ctx)
	case MethodGetRequest:
		return s.getRequest(ctx, input[1:])
	case MethodAuthorize:
		return s.authorize(ctx, input[1:])
	case MethodSetMode:
		return s.setMode(ctx, input[1:])
	case MethodIsAuthorized:
		return s.isAuthorized(ctx, input[1:])
	default:
		return nil, fmt.Errorf("contract: unknown method 0x%02x", input[0])
	}
}

func (s *Slicer) owner(ctx *chain.CallCtx) (chain.Address, error) {
	v, ok, err := ctx.SLoad(slotOwner)
	if err != nil {
		return chain.Address{}, err
	}
	if !ok {
		return chain.Address{}, errors.New("contract: uninitialized")
	}
	var a chain.Address
	copy(a[:], v[12:])
	return a, nil
}

// SetAcData builds calldata for MethodSetAc: the digest of the new Ac.
// The owner computes the digest off chain; only 32 bytes hit the chain,
// which is what keeps data insertion cheap (Table II).
func SetAcData(ac *big.Int) []byte {
	d := chain.HashBytes(ac.Bytes())
	return append([]byte{MethodSetAc}, d[:]...)
}

func (s *Slicer) setAc(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	owner, err := s.owner(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Caller != owner {
		return nil, errors.New("contract: SetAc restricted to the data owner")
	}
	if len(data) != 32 {
		return nil, fmt.Errorf("contract: SetAc wants a 32-byte digest, got %d", len(data))
	}
	if err := ctx.SStore(slotAcDigest, chain.Slot(data)); err != nil {
		return nil, err
	}
	cnt, _, err := ctx.SLoad(slotAcUpdates)
	if err != nil {
		return nil, err
	}
	if err := ctx.SStore(slotAcUpdates, chain.U64Slot(chain.SlotU64(cnt)+1)); err != nil {
		return nil, err
	}
	return nil, ctx.EmitLog([]chain.Hash{TopicAcUpdated}, data)
}

// RequestData builds calldata for MethodRequest.
func RequestData(reqID chain.Hash, cloud chain.Address, tokensHash chain.Hash) []byte {
	out := make([]byte, 0, 1+32+20+32)
	out = append(out, MethodRequest)
	out = append(out, reqID[:]...)
	out = append(out, cloud[:]...)
	return append(out, tokensHash[:]...)
}

// TokensHash computes the canonical hash binding a request to its token
// list. The user computes it when escrowing; the contract recomputes it
// from the submitted results.
func TokensHash(tokens []core.SearchToken) (chain.Hash, error) {
	enc, err := EncodeTokens(tokens)
	if err != nil {
		return chain.Hash{}, err
	}
	return chain.HashBytes(enc), nil
}

// AuthorizeData builds calldata for MethodAuthorize.
func AuthorizeData(user chain.Address, allowed bool) []byte {
	out := make([]byte, 0, 22)
	out = append(out, MethodAuthorize)
	out = append(out, user[:]...)
	if allowed {
		return append(out, 1)
	}
	return append(out, 0)
}

// SetModeData builds calldata for MethodSetMode. Restricted mode confines
// search requests to owner-authorized addresses; the contract deploys in
// open mode (anyone holding valid tokens and a payment may request, as in
// the paper, where authorization is enforced by key distribution).
func SetModeData(restricted bool) []byte {
	if restricted {
		return []byte{MethodSetMode, 1}
	}
	return []byte{MethodSetMode, 0}
}

func (s *Slicer) authorize(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	owner, err := s.owner(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Caller != owner {
		return nil, errors.New("contract: Authorize restricted to the data owner")
	}
	if len(data) != 21 {
		return nil, fmt.Errorf("contract: Authorize wants 21 bytes, got %d", len(data))
	}
	var user chain.Address
	copy(user[:], data[:20])
	return nil, ctx.SStore(authSlot(user), chain.U64Slot(uint64(data[20]&1)))
}

func (s *Slicer) setMode(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	owner, err := s.owner(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Caller != owner {
		return nil, errors.New("contract: SetMode restricted to the data owner")
	}
	if len(data) != 1 {
		return nil, fmt.Errorf("contract: SetMode wants 1 byte, got %d", len(data))
	}
	return nil, ctx.SStore(slotRestricted, chain.U64Slot(uint64(data[0]&1)))
}

func (s *Slicer) isAuthorized(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	if len(data) != 20 {
		return nil, fmt.Errorf("contract: IsAuthorized wants 20 bytes, got %d", len(data))
	}
	var user chain.Address
	copy(user[:], data)
	ok, err := s.callerAllowed(ctx, user)
	if err != nil {
		return nil, err
	}
	if ok {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

// callerAllowed checks restricted mode: in open mode everyone may request;
// in restricted mode only the owner and authorized users may.
func (s *Slicer) callerAllowed(ctx *chain.CallCtx, caller chain.Address) (bool, error) {
	mode, _, err := ctx.SLoad(slotRestricted)
	if err != nil {
		return false, err
	}
	if chain.SlotU64(mode) == 0 {
		return true, nil
	}
	owner, err := s.owner(ctx)
	if err != nil {
		return false, err
	}
	if caller == owner {
		return true, nil
	}
	auth, _, err := ctx.SLoad(authSlot(caller))
	if err != nil {
		return false, err
	}
	return chain.SlotU64(auth) == 1, nil
}

func (s *Slicer) request(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	if len(data) != 32+20+32 {
		return nil, fmt.Errorf("contract: Request wants 84 bytes, got %d", len(data))
	}
	if ctx.Value == 0 {
		return nil, errors.New("contract: search request must escrow a payment")
	}
	allowed, err := s.callerAllowed(ctx, ctx.Caller)
	if err != nil {
		return nil, err
	}
	if !allowed {
		return nil, errors.New("contract: caller is not an authorized data user")
	}
	var reqID chain.Hash
	copy(reqID[:], data[:32])
	st, _, err := ctx.SLoad(requestSlot(reqID, "status"))
	if err != nil {
		return nil, err
	}
	if chain.SlotU64(st) != StatusNone {
		return nil, fmt.Errorf("contract: request %s already exists", reqID)
	}
	var payer, cloud chain.Slot
	copy(payer[12:], ctx.Caller[:])
	copy(cloud[12:], data[32:52])
	writes := []struct {
		slot chain.Slot
		val  chain.Slot
	}{
		{requestSlot(reqID, "status"), chain.U64Slot(StatusPending)},
		{requestSlot(reqID, "payer"), payer},
		{requestSlot(reqID, "cloud"), cloud},
		{requestSlot(reqID, "payment"), chain.U64Slot(ctx.Value)},
		{requestSlot(reqID, "tokens"), chain.Slot(data[52:84])},
	}
	for _, w := range writes {
		if err := ctx.SStore(w.slot, w.val); err != nil {
			return nil, err
		}
	}
	return nil, ctx.EmitLog([]chain.Hash{TopicRequested, reqID}, data[32:])
}

// SubmitData builds calldata for MethodSubmitResult: the request ID, the
// accumulator public parameters, the current Ac, and the serialized
// results.
func SubmitData(reqID chain.Hash, accParams []byte, ac *big.Int, results []core.TokenResult) ([]byte, error) {
	enc, err := EncodeResults(results)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 1+32+4+len(accParams)+4+len(enc)+len(ac.Bytes())+2)
	out = append(out, MethodSubmitResult)
	out = append(out, reqID[:]...)
	out, err = appendU32(out, len(accParams))
	if err != nil {
		return nil, err
	}
	out = append(out, accParams...)
	acb := ac.Bytes()
	out, err = appendU16(out, len(acb))
	if err != nil {
		return nil, err
	}
	out = append(out, acb...)
	return append(out, enc...), nil
}

// submitResult runs Algorithm 5 — core.VerifyResults, the check the data
// user runs, charged to this call's gas — and the fair-exchange settlement: a
// valid proof pays the cloud, an invalid one refunds the data user.
// Malformed submissions revert (the escrow stays pending and the cloud can
// resubmit).
func (s *Slicer) submitResult(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	if len(data) < 32 {
		return nil, errTruncated
	}
	var reqID chain.Hash
	copy(reqID[:], data[:32])
	data = data[32:]

	// Load and check the escrow entry.
	st, _, err := ctx.SLoad(requestSlot(reqID, "status"))
	if err != nil {
		return nil, err
	}
	if chain.SlotU64(st) != StatusPending {
		return nil, fmt.Errorf("contract: request %s is not pending", reqID)
	}
	cloudSlot, _, err := ctx.SLoad(requestSlot(reqID, "cloud"))
	if err != nil {
		return nil, err
	}
	var cloudAddr chain.Address
	copy(cloudAddr[:], cloudSlot[12:])
	if ctx.Caller != cloudAddr {
		return nil, errors.New("contract: only the assigned cloud may submit results")
	}

	// Parse and authenticate the accumulator parameters and Ac against the
	// stored digests.
	n, data, err := readU32(data)
	if err != nil {
		return nil, err
	}
	paramsBytes, data, err := readBytes(data, n)
	if err != nil {
		return nil, err
	}
	pd, err := ctx.Hash(paramsBytes)
	if err != nil {
		return nil, err
	}
	wantPD, _, err := ctx.SLoad(slotParamsDigest)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(pd[:], wantPD[:]) != 1 {
		return nil, errors.New("contract: accumulator parameters do not match deployment digest")
	}
	pp, err := accumulator.UnmarshalPublic(paramsBytes)
	if err != nil {
		return nil, err
	}

	n, data, err = readU16(data)
	if err != nil {
		return nil, err
	}
	acBytes, data, err := readBytes(data, n)
	if err != nil {
		return nil, err
	}
	ad, err := ctx.Hash(acBytes)
	if err != nil {
		return nil, err
	}
	wantAD, _, err := ctx.SLoad(slotAcDigest)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(ad[:], wantAD[:]) != 1 {
		return nil, errors.New("contract: submitted Ac is stale (freshness check failed)")
	}
	ac := new(big.Int).SetBytes(acBytes)

	results, rest, err := DecodeResults(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("contract: trailing bytes after results")
	}

	// The response rule: result i answers request token i, one result per
	// token, so the submitted token sequence must hash to the escrowed one.
	tokens := make([]core.SearchToken, len(results))
	for i := range results {
		tokens[i] = results[i].Token
	}
	enc, err := EncodeTokens(tokens)
	if err != nil {
		return nil, err
	}
	th, err := ctx.Hash(enc)
	if err != nil {
		return nil, err
	}
	wantTH, _, err := ctx.SLoad(requestSlot(reqID, "tokens"))
	if err != nil {
		return nil, err
	}

	valid := subtle.ConstantTimeCompare(th[:], wantTH[:]) == 1
	if valid {
		bad, err := s.verify(pp, ac, results, callMeter{ctx})
		if err != nil {
			return nil, err
		}
		valid = bad < 0
	}

	// Settle or refund the escrow.
	paymentSlot, _, err := ctx.SLoad(requestSlot(reqID, "payment"))
	if err != nil {
		return nil, err
	}
	payment := chain.SlotU64(paymentSlot)
	payerSlot, _, err := ctx.SLoad(requestSlot(reqID, "payer"))
	if err != nil {
		return nil, err
	}
	var payer chain.Address
	copy(payer[:], payerSlot[12:])

	if valid {
		if err := ctx.SStore(requestSlot(reqID, "status"), chain.U64Slot(StatusSettled)); err != nil {
			return nil, err
		}
		if err := ctx.Transfer(cloudAddr, payment); err != nil {
			return nil, err
		}
		if err := ctx.EmitLog([]chain.Hash{TopicSettled, reqID}, nil); err != nil {
			return nil, err
		}
		return []byte{1}, nil
	}
	if err := ctx.SStore(requestSlot(reqID, "status"), chain.U64Slot(StatusRefunded)); err != nil {
		return nil, err
	}
	if err := ctx.Transfer(payer, payment); err != nil {
		return nil, err
	}
	if err := ctx.EmitLog([]chain.Hash{TopicRefunded, reqID}, nil); err != nil {
		return nil, err
	}
	return []byte{0}, nil
}

func (s *Slicer) getAcDigest(ctx *chain.CallCtx) ([]byte, error) {
	v, ok, err := ctx.SLoad(slotAcDigest)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("contract: uninitialized")
	}
	cnt, _, err := ctx.SLoad(slotAcUpdates)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 40)
	out = append(out, v[:]...)
	return append(out, cnt[24:]...), nil
}

func (s *Slicer) getRequest(ctx *chain.CallCtx, data []byte) ([]byte, error) {
	if len(data) != 32 {
		return nil, fmt.Errorf("contract: GetRequest wants a 32-byte id, got %d", len(data))
	}
	var reqID chain.Hash
	copy(reqID[:], data)
	st, _, err := ctx.SLoad(requestSlot(reqID, "status"))
	if err != nil {
		return nil, err
	}
	pay, _, err := ctx.SLoad(requestSlot(reqID, "payment"))
	if err != nil {
		return nil, err
	}
	return []byte{byte(chain.SlotU64(st)), pay[24], pay[25], pay[26], pay[27], pay[28], pay[29], pay[30], pay[31]}, nil
}
