package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// CryptoPackages names the packages (by final import-path element) whose
// comparisons of secret-derived bytes must be constant time. These are the
// packages implementing the paper's cryptographic machinery: the PRFs and
// symmetric encryption, the on-chain verification contract, the
// order-revealing encryption, the multiset hash, the prime representatives
// H_prime, the RSA accumulator and the forward-secure trapdoor permutation.
var CryptoPackages = map[string]bool{
	"prf":         true,
	"symenc":      true,
	"contract":    true,
	"sore":        true,
	"mhash":       true,
	"hprime":      true,
	"accumulator": true,
	"trapdoor":    true,
}

// sensitiveWord matches identifier or type names that conventionally carry
// MAC/tag/digest/key material. Matching is deliberately name-based: the
// scheme's verification values (proof digests, set-hash tags, search
// tokens) are plain byte arrays, so the type system alone cannot identify
// them.
var sensitiveWord = regexp.MustCompile(`(?i)(hash|digest|mac\b|hmac|tag|key|token|trapdoor|secret|proof|cipher)`)

// CTCompare flags non-constant-time equality on MAC/tag/digest/key-typed
// values inside the crypto packages: bytes.Equal, reflect.DeepEqual and
// the == / != operators all short-circuit on the first differing byte,
// turning a remote verifier into a byte-by-byte timing oracle. The fix is
// crypto/hmac.Equal or crypto/subtle.ConstantTimeCompare.
var CTCompare = &Analyzer{
	Name: "ctcompare",
	Doc: "flag non-constant-time comparison of secret-derived bytes " +
		"(bytes.Equal, reflect.DeepEqual, == / !=) in crypto packages; " +
		"use hmac.Equal or subtle.ConstantTimeCompare",
	Run: runCTCompare,
}

func runCTCompare(pass *Pass) {
	pkg := pass.Pkg
	if !CryptoPackages[pkgBase(pkg.PkgPath)] || pkg.Info == nil {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkVariadicCompare(pass, v)
			case *ast.BinaryExpr:
				if v.Op == token.EQL || v.Op == token.NEQ {
					checkOperatorCompare(pass, v)
				}
			}
			return true
		})
	}
}

// checkVariadicCompare flags bytes.Equal / reflect.DeepEqual calls whose
// arguments look secret-derived.
func checkVariadicCompare(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg.Info, call)
	var what string
	switch {
	case isPkgFunc(fn, "bytes", "Equal"):
		what = "bytes.Equal"
	case isPkgFunc(fn, "reflect", "DeepEqual"):
		what = "reflect.DeepEqual"
	default:
		return
	}
	if len(call.Args) != 2 {
		return
	}
	for _, arg := range call.Args {
		if name, ok := sensitiveExpr(pass.Pkg.Info, arg); ok {
			pass.Reportf(call.Pos(),
				"%s on secret-derived value %s is not constant time; use hmac.Equal or subtle.ConstantTimeCompare",
				what, name)
			return
		}
	}
}

// checkOperatorCompare flags == / != between secret-derived byte
// sequences (comparable digest arrays, strings holding key material).
func checkOperatorCompare(pass *Pass, cmp *ast.BinaryExpr) {
	info := pass.Pkg.Info
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		// Comparisons against nil or constants (len checks, sentinel
		// strings) are not comparisons of two secrets.
		if tv, ok := info.Types[side]; ok && (tv.IsNil() || tv.Value != nil) {
			return
		}
	}
	xt := info.Types[cmp.X].Type
	yt := info.Types[cmp.Y].Type
	if xt == nil || yt == nil || !isByteSequence(xt) || !isByteSequence(yt) {
		return
	}
	xn, xok := sensitiveExpr(info, cmp.X)
	_, yok := sensitiveExpr(info, cmp.Y)
	if !xok && !yok {
		return
	}
	name := xn
	if !xok {
		name, _ = sensitiveExpr(info, cmp.Y)
	}
	pass.Reportf(cmp.OpPos,
		"%s comparison of secret-derived value %s is not constant time; compare with subtle.ConstantTimeCompare (or hmac.Equal) over the byte slices",
		cmp.Op, name)
}

// sensitiveExpr reports whether an expression carries MAC/tag/digest/key
// material, judged by its identifier spine and its named-type chain, and
// returns a printable name for diagnostics.
func sensitiveExpr(info *types.Info, e ast.Expr) (string, bool) {
	base := unwrapOperand(e)
	for _, w := range exprWords(base) {
		if sensitiveWord.MatchString(w) {
			return types.ExprString(base), true
		}
	}
	if tv, ok := info.Types[base]; ok && tv.Type != nil {
		for _, tn := range namedTypeNames(tv.Type) {
			if sensitiveWord.MatchString(tn) {
				return types.ExprString(base), true
			}
		}
	}
	return "", false
}
