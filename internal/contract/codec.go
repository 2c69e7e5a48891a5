// Package contract implements the Slicer smart contract on top of the chain
// substrate: ADS digest storage (data freshness), escrowed search payments,
// and gas-metered on-chain result verification (Algorithm 5) that settles
// the payment to an honest cloud or refunds a cheated data user.
//
// Matching the paper's low insertion gas, the contract stores only a
// 32-byte digest of the accumulation value Ac on chain; the cloud supplies
// Ac itself (and the accumulator public parameters) in calldata at
// verification time, and the contract checks them against the stored
// digests before use.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slicer/internal/core"
)

// Calldata codec. All integers are big endian. The encoding is canonical:
// both the data user (when hashing the tokens it escrows a payment for) and
// the cloud (when submitting results) must produce identical bytes for
// identical logical content.

var errTruncated = errors.New("contract: truncated calldata")

func appendU16(dst []byte, v int) ([]byte, error) {
	if v < 0 || v > 0xffff {
		return nil, fmt.Errorf("contract: length %d exceeds u16", v)
	}
	return append(dst, byte(v>>8), byte(v)), nil
}

// maxU32 is the largest value the u32 fields carry: they decode into int,
// so the top bit stays clear on every platform.
const maxU32 = 0x7fffffff

func appendU32(dst []byte, v int) ([]byte, error) {
	if v < 0 || v > maxU32 {
		return nil, fmt.Errorf("contract: length %d exceeds u32", v)
	}
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v)), nil
}

func readU16(data []byte) (int, []byte, error) {
	if len(data) < 2 {
		return 0, nil, errTruncated
	}
	return int(binary.BigEndian.Uint16(data)), data[2:], nil
}

func readU32(data []byte) (int, []byte, error) {
	if len(data) < 4 {
		return 0, nil, errTruncated
	}
	v := binary.BigEndian.Uint32(data)
	if v > maxU32 { // appendU32 never writes one: keep the encoding canonical
		return 0, nil, fmt.Errorf("contract: length %d exceeds u32", v)
	}
	return int(v), data[4:], nil
}

func readBytes(data []byte, n int) ([]byte, []byte, error) {
	if n < 0 || len(data) < n {
		return nil, nil, errTruncated
	}
	return data[:n], data[n:], nil
}

// EncodeToken serializes one search token.
func EncodeToken(dst []byte, tok core.SearchToken) ([]byte, error) {
	dst, err := appendU16(dst, len(tok.Trapdoor))
	if err != nil {
		return nil, err
	}
	dst = append(dst, tok.Trapdoor...)
	dst, err = appendU32(dst, tok.Epoch)
	if err != nil {
		return nil, err
	}
	dst, err = appendU16(dst, len(tok.G1))
	if err != nil {
		return nil, err
	}
	dst = append(dst, tok.G1...)
	dst, err = appendU16(dst, len(tok.G2))
	if err != nil {
		return nil, err
	}
	return append(dst, tok.G2...), nil
}

// DecodeToken parses one search token.
func DecodeToken(data []byte) (core.SearchToken, []byte, error) {
	var tok core.SearchToken
	n, data, err := readU16(data)
	if err != nil {
		return tok, nil, err
	}
	t, data, err := readBytes(data, n)
	if err != nil {
		return tok, nil, err
	}
	tok.Trapdoor = append([]byte(nil), t...)
	tok.Epoch, data, err = readU32(data)
	if err != nil {
		return tok, nil, err
	}
	n, data, err = readU16(data)
	if err != nil {
		return tok, nil, err
	}
	g1, data, err := readBytes(data, n)
	if err != nil {
		return tok, nil, err
	}
	tok.G1 = append([]byte(nil), g1...)
	n, data, err = readU16(data)
	if err != nil {
		return tok, nil, err
	}
	g2, data, err := readBytes(data, n)
	if err != nil {
		return tok, nil, err
	}
	tok.G2 = append([]byte(nil), g2...)
	return tok, data, nil
}

// EncodeTokens canonically serializes a token list. Its chain hash is what
// a search request escrows against.
func EncodeTokens(tokens []core.SearchToken) ([]byte, error) {
	out, err := appendU16(nil, len(tokens))
	if err != nil {
		return nil, err
	}
	for _, tok := range tokens {
		out, err = EncodeToken(out, tok)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeResults serializes a full search response (token, result set and
// witness per entry) for SubmitResult calldata.
func EncodeResults(results []core.TokenResult) ([]byte, error) {
	out, err := appendU16(nil, len(results))
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		out, err = EncodeToken(out, res.Token)
		if err != nil {
			return nil, err
		}
		out, err = appendU32(out, len(res.ER))
		if err != nil {
			return nil, err
		}
		for _, er := range res.ER {
			out, err = appendU16(out, len(er))
			if err != nil {
				return nil, err
			}
			out = append(out, er...)
		}
		out, err = appendU16(out, len(res.Witness))
		if err != nil {
			return nil, err
		}
		out = append(out, res.Witness...)
	}
	return out, nil
}

// The shortest encodings of an er and of a token result: every decoded count
// is capped by the bytes left, so a hostile count cannot allocate more than
// its calldata could fill.
const (
	minERLen     = 2
	minResultLen = 2 + 4 + 2 + 2 + 4 + 2 // empty token fields, no er, empty witness
)

// DecodeResults parses SubmitResult calldata back into token results.
func DecodeResults(data []byte) ([]core.TokenResult, []byte, error) {
	count, data, err := readU16(data)
	if err != nil {
		return nil, nil, err
	}
	if count > len(data)/minResultLen {
		return nil, nil, errTruncated
	}
	results := make([]core.TokenResult, 0, count)
	for i := 0; i < count; i++ {
		var res core.TokenResult
		res.Token, data, err = DecodeToken(data)
		if err != nil {
			return nil, nil, err
		}
		var n int
		n, data, err = readU32(data)
		if err != nil {
			return nil, nil, err
		}
		if n > len(data)/minERLen {
			return nil, nil, errTruncated
		}
		res.ER, data, err = readERs(data, n)
		if err != nil {
			return nil, nil, err
		}
		n, data, err = readU16(data)
		if err != nil {
			return nil, nil, err
		}
		var w []byte
		w, data, err = readBytes(data, n)
		if err != nil {
			return nil, nil, err
		}
		res.Witness = append([]byte(nil), w...)
		results = append(results, res)
	}
	return results, data, nil
}

// readERs copies n length-prefixed er entries out of data into one backing
// array: a token's entries cost one allocation, and none aliases the
// calldata.
func readERs(data []byte, n int) ([][]byte, []byte, error) {
	size, rest := 0, data
	for k := 0; k < n; k++ {
		m, r, err := readU16(rest)
		if err != nil {
			return nil, nil, err
		}
		if _, rest, err = readBytes(r, m); err != nil {
			return nil, nil, err
		}
		size += m
	}
	backing := make([]byte, 0, size)
	ers := make([][]byte, n)
	for k := range ers {
		m := int(binary.BigEndian.Uint16(data))
		backing = append(backing, data[2:2+m]...)
		ers[k] = backing[len(backing)-m : len(backing) : len(backing)]
		data = data[2+m:]
	}
	return ers, rest, nil
}
