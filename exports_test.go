package xorpuf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// keepUnreached lists the exported funcs, methods and types that no
// non-test code names but that stay on purpose, each with its reason.  Keys
// are "dir/file.go:Name" for funcs and types, "dir/file.go:Recv.Name" for
// methods.
var keepUnreached = map[string]string{
	// The root package's public API, exposed through puf.go aliases.
	"internal/authproto/comparators.go:Lockdown.Authorize":       "public API: method of the xorpuf.Lockdown alias",
	"internal/authproto/comparators.go:Lockdown.HarvestCRPs":     "public API: method of the xorpuf.Lockdown alias",
	"internal/authproto/comparators.go:NewLockdown":              "public API: builds the xorpuf.Lockdown alias",
	"internal/authproto/comparators.go:NoiseBifurcation.TapCRPs": "public API: method of the xorpuf.NoiseBifurcation alias",
	"puf.go:EnrollKey":    "public API of the root package",
	"puf.go:ReproduceKey": "public API of the root package",

	// DESIGN.md ablations and the stress scheduler the soaks drive.
	"internal/authproto/xorsoft.go:EnrollXORSoft":        "DESIGN.md's XOR-level soft-response salvage",
	"internal/core/incremental.go:NewIncrementalFit":     "DESIGN.md ablation: incremental enrollment fit",
	"internal/core/incremental.go:IncrementalFit.Update": "DESIGN.md ablation: incremental enrollment fit",
	"internal/mlattack/adam.go:DefaultAdamConfig":        "DESIGN.md ablation: Adam-trained MLP attack",
	"internal/mlattack/adam.go:RunMLPAttackAdam":         "DESIGN.md ablation: Adam-trained MLP attack",
	"internal/silicon/stress.go:DefaultStressConfig":     "default of silicon.StressProfile, which the lifetime soak drives",

	// Ground-truth oracles that tests compare against.
	"internal/core/enroll.go:ChipModel.PredictXOR":                                    "oracle for PredictXORFeatures and the selector kernel tests",
	"internal/core/enroll.go:PoolBetas":                                               "chip-wide β pooling; per-member thresholds (ROADMAP item 10) replace it",
	"internal/dist/dist.go:NormalPDF":                                                 "oracle: the silicon tests integrate against it",
	"internal/linalg/lstsq.go:NormalEquations":                                        "oracle: LeastSquares is checked against NormalEquations+SolveSPD",
	"internal/linalg/lstsq.go:SolveSPD":                                               "oracle: LeastSquares is checked against NormalEquations+SolveSPD",
	"internal/silicon/chip.go:Chip.XORStabilityProbability":                           "oracle: exact XOR stability the core tests check issued challenges against",
	"internal/silicon/feedforward.go:FeedForwardPUF.ResponseProbabilityNoiselessTaps": "oracle: exact response probability, picks marginal challenges in the tests",
	"internal/silicon/silicon.go:ArbiterPUF.StructuralDelay":                          "oracle: structural delay the linear model is checked against",
	"internal/xorpuf/xorpuf.go:XORPUF.OutputAgreeProbability":                         "oracle: exact all-agree probability StabilityProbability is checked against",

	// The reliability attack tools (ROADMAP item 2).
	"internal/mlattack/reliability.go:BuildReliabilityDataset": "reliability attack tool (ROADMAP item 2)",
	"internal/mlattack/reliability.go:CosineToMembers":         "reliability attack tool (ROADMAP item 2)",
	"internal/mlattack/reliability.go:DatasetFromSelectedCRPs": "reliability attack tool (ROADMAP item 2)",
	"internal/mlattack/reliability.go:RunReliabilityAttack":    "reliability attack tool (ROADMAP item 2)",

	// Interface methods and test seams.
	"internal/faultnet/faultnet.go:FaultError.Temporary":   "net.Error method",
	"internal/netauth/netauth.go:Server.SetTelemetry":      "test seam: per-test metric registry",
	"internal/node/node.go:Node.AdminAddr":                 "test seam: the bound address of a :0 listener",
	"internal/node/node.go:Node.AuthAddr":                  "test seam: the bound address of a :0 listener",
	"internal/node/node.go:Node.MigrateAddr":               "test seam: the bound address of a :0 listener",
	"internal/node/node.go:Node.ReplAddr":                  "test seam: the bound address of a :0 listener",
	"internal/wire/pool.go:SetPoison":                      "test seam: poisons released frame buffers",
	"internal/wire/pool.go:Poisoned":                       "test seam: poisons released frame buffers",
	"internal/core/selector.go:Selector.SetBudget":         "test seam: selector tests set budgets without a registry",
	"internal/telemetry/dtrace/dtrace.go:Recorder.ByTrace": "test seam: tests read one trace's spans from the ring",
	"internal/silicon/chip.go:Chip.ReadIndividual":         "the fuse-gated per-member read; silicon tests check the fuse gate on it",
	"internal/rng/rng.go:Source.Perm":                      "seeded error positions for the ecc and keygen tests",

	// Only their own tests reach these; each goes with its tests in a
	// later pass (ROADMAP item 9).
	"internal/challenge/challenge.go:All":                       "its own tests only: TestAllEnumeratesExactly, TestAllEarlyStop",
	"internal/dist/dist.go:NormalQuantile":                      "its own tests only: TestNormalQuantile*",
	"internal/dist/dist.go:NormalSF":                            "its own test only: TestNormalSFComplement",
	"internal/rng/rng.go:Source.NormPair":                       "its own test only: TestNormPairMatchesMoments",
	"internal/silicon/feedforward.go:FeedForwardPUF.Loops":      "its own test only: TestFeedForwardLoopsAccessor",
	"internal/stats/stats.go:MinMax":                            "its own test only: TestMinMax",
	"internal/telemetry/history/sampler.go:Sampler.SeriesNames": "its own test only: TestSeriesNames",
}

// TestEveryExportIsReached fails on an exported top-level func, method or
// type of the module's non-test Go that no identifier of any non-test file
// names, apart from its own declaration.  perfbench/ counts as a user: it
// compiles against the module.  Names are matched through the AST, so
// comments and strings do not count; matching is by name alone, so a method
// shares its name with every same-named method.  A deliberate exception goes
// into keepUnreached with a reason.
func TestEveryExportIsReached(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]bool{} // names some identifier uses
	type decl struct{ key, name string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Identifiers a declaration introduces are not uses of it.
		declared := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string) {
			declared[id] = true
			if id.IsExported() && !strings.HasPrefix(path, "perfbench") {
				decls = append(decls, decl{path + ":" + key, id.Name})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				key := dl.Name.Name
				if dl.Recv != nil {
					key = recvName(dl.Recv.List[0].Type) + "." + key
				}
				declare(dl.Name, key)
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						declare(ts.Name, ts.Name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] {
			continue
		}
		unreached[d.key] = true
		if _, kept := keepUnreached[d.key]; !kept {
			t.Errorf("%s: exported, but no non-test code names it", d.key)
		}
	}
	for key, reason := range keepUnreached {
		if reason == "" {
			t.Errorf("keep-list entry %s has no reason", key)
		}
		if !unreached[key] {
			t.Errorf("keep-list entry %s names no unreached declaration; drop it", key)
		}
	}
}

// recvName is the type name of a method receiver (pointer and type
// parameters stripped).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
