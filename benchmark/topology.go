package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/shard"
	"slicer/internal/wire"
)

// searcher and miner are all the fair-exchange round needs from the cloud
// and the chain; each topology supplies its own pair.
type searcher interface {
	Search(*core.SearchRequest) (*core.SearchResponse, error)
}

type miner interface {
	Mine(*chain.Transaction) (*wire.ReceiptMsg, error)
	Nonce(chain.Address) (uint64, error)
}

// cloudAPI and chainAPI add what the harness itself needs around the rounds:
// shipping inserts, reading sizes and balances.
type cloudAPI interface {
	searcher
	Update(*core.UpdateOutput) error
	Sizes() (cloudSizes, error)
}

type chainAPI interface {
	miner
	Balance(chain.Address) (uint64, error)
}

type cloudSizes struct{ entries, indexBytes, adsBytes int }

type localCloud struct{ *core.Cloud }

func (c localCloud) Update(out *core.UpdateOutput) error { return c.ApplyUpdate(out) }
func (c localCloud) Sizes() (cloudSizes, error) {
	return cloudSizes{c.IndexLen(), c.IndexSizeBytes(), c.ADSSizeBytes()}, nil
}

type remoteCloud struct{ *wire.CloudClient }

func (c remoteCloud) Sizes() (cloudSizes, error) {
	st, err := c.Stats()
	if err != nil {
		return cloudSizes{}, err
	}
	return cloudSizes{st.IndexEntries, st.IndexBytes, st.ADSBytes}, nil
}

// localChain drives an in-process PoA network the way wire.ChainClient
// drives a remote one: submit, seal one block, read the receipt.
type localChain struct{ net *chain.Network }

func (c localChain) Mine(tx *chain.Transaction) (*wire.ReceiptMsg, error) {
	if err := c.net.SubmitTx(tx); err != nil {
		return nil, err
	}
	if _, err := c.net.Step(); err != nil {
		return nil, err
	}
	r, ok := c.net.Leader().Receipt(tx.Hash())
	if !ok {
		return nil, errors.New("receipt missing after seal")
	}
	return &wire.ReceiptMsg{Found: true, Status: r.Status, GasUsed: r.GasUsed,
		ContractAddress: r.ContractAddress, ReturnData: r.ReturnData, Err: r.Err}, nil
}
func (c localChain) Nonce(a chain.Address) (uint64, error)   { return c.net.Leader().NextNonce(a), nil }
func (c localChain) Balance(a chain.Address) (uint64, error) { return c.net.Leader().Balance(a), nil }

type topology int

const (
	topoInproc  topology = iota // core.Cloud and chain.Network called directly
	topoWire                    // one wire.CloudServer, one wire.ChainServer
	topoRouter3                 // shard.Router over three wire.CloudServer shards
	topoDurable                 // topoWire with a fsync-always data directory each
)

const (
	initialBalance = 1 << 40
	payment        = 2500
)

var (
	ownerAcct = chain.AddressFromString("bench-owner")
	userAcct  = chain.AddressFromString("bench-user")
	cloudAcct = chain.AddressFromString("bench-cloud")
)

// system is one deployed Slicer instance. The traced run adds a registry on
// the servers, counting filesystems under the data directories and ref, an
// in-process cloud holding the same state that answers the shadow calls.
type system struct {
	topo     topology
	dataDir  string
	owner    *core.Owner
	user     *core.User
	cloud    cloudAPI
	chain    chainAPI
	contract chain.Address
	accPub   []byte

	ref     *core.Cloud
	reg     *obs.Registry
	router  *shard.Router
	cloudFS *countingFS
	chainFS *countingFS
	closers []func() error // everything but the chain
	chainUp []func() error // the current chain's server and client

	chains   int    // chains started so far
	nextReq  uint64 // request-id counter
	requests int    // requests escrowed on the current chain
	settled  uint64 // of those, the rounds whose payment went to the cloud
}

func closeAll(closers []func() error) {
	for i := len(closers) - 1; i >= 0; i-- {
		_ = closers[i]() // teardown of a finished run; nothing acts on a late close error
	}
}

func (s *system) close() {
	closeAll(s.chainUp)
	closeAll(s.closers)
}

// setupTimes are the pieces of one set-up, in seconds.
type setupTimes struct{ build, cloudInit, refInit float64 }

// buildSystem builds the database, brings up the topology, ships the index
// and deploys the contract, using only constructors the binaries use.
func buildSystem(topo topology, params core.Params, db []core.Record, traced bool, dataDir string) (sys *system, st setupTimes, err error) {
	s := &system{topo: topo, dataDir: dataDir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if traced {
		s.reg = obs.NewRegistry()
		if topo == topoDurable {
			s.cloudFS, s.chainFS = newCountingFS(), newCountingFS()
		}
	}

	t0 := time.Now()
	if s.owner, err = core.NewOwner(params); err != nil {
		return nil, st, err
	}
	built, err := s.owner.Build(db)
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t0).Seconds()
	s.accPub = s.owner.AccumulatorPub().Marshal()

	t0 = time.Now()
	if err = s.startCloud(topo, s.owner.CloudInit(built.Index), dataDir); err != nil {
		return nil, st, fmt.Errorf("cloud: %w", err)
	}
	st.cloudInit = time.Since(t0).Seconds()

	if err = s.newChain(); err != nil {
		return nil, st, fmt.Errorf("chain: %w", err)
	}
	if s.user, err = core.NewUser(s.owner.ClientState()); err != nil {
		return nil, st, err
	}

	if traced {
		t0 = time.Now()
		if s.ref, err = core.NewCloud(s.owner.CloudInit(built.Index), core.WitnessCached); err != nil {
			return nil, st, err
		}
		st.refInit = time.Since(t0).Seconds()
	}
	return s, st, nil
}

// durability points a server at its data directory, through the counting
// filesystem when there is one (the traced run).
func durability(dir string, fs *countingFS) wire.DurabilityOptions {
	opts := wire.DurabilityOptions{Dir: dir}
	if fs != nil {
		opts.FS = fs
	}
	return opts
}

func (s *system) listenCloud(topo topology, dir string) (string, error) {
	srv := wire.NewCloudServer()
	if s.reg != nil {
		srv.SetObservability(s.reg, nil)
	}
	if topo == topoDurable {
		if _, err := srv.EnableDurability(durability(dir, s.cloudFS)); err != nil {
			return "", err
		}
	}
	s.closers = append(s.closers, srv.Close)
	return srv.Listen("127.0.0.1:0")
}

func (s *system) startCloud(topo topology, init *core.CloudState, dataDir string) error {
	if topo == topoInproc {
		c, err := core.NewCloud(init, core.WitnessCached)
		s.cloud = localCloud{c}
		return err
	}
	var addr string
	var err error
	if topo == topoRouter3 {
		var specs []shard.ShardSpec
		for _, id := range []string{"s1", "s2", "s3"} {
			a, err := s.listenCloud(topo, "")
			if err != nil {
				return err
			}
			specs = append(specs, shard.ShardSpec{ID: id, Addr: a})
		}
		if s.router, err = shard.NewRouter(shard.Options{Shards: specs, Registry: s.reg}); err != nil {
			return err
		}
		s.closers = append(s.closers, s.router.Close)
		addr, err = s.router.Listen("127.0.0.1:0")
	} else {
		addr, err = s.listenCloud(topo, filepath.Join(dataDir, "cloud"))
	}
	if err != nil {
		return err
	}
	cli, err := wire.DialCloud(addr)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, cli.Close)
	s.cloud = remoteCloud{cli}
	return cli.Init(init, true)
}

// newChain starts a chain that funds the three accounts, deploys the
// contract on it under the owner's current accumulation value, and retires
// the chain before it. The repository's chain commits to its state by hashing
// all of it at every block, and the contract keeps five slots per request for
// ever, so each round costs some 12 us more than the one before. The harness
// therefore starts a new chain every scale.epochRounds requests: every run
// then times the same short stretch of that ramp, however many rounds it fits
// in, and a faster round does not pay for itself with a longer chain.
func (s *system) newChain() error {
	closeAll(s.chainUp)
	s.chainUp = nil
	if s.topo == topoDurable {
		// The retired chain's journal goes with it.
		if err := os.RemoveAll(s.chainDir()); err != nil {
			return err
		}
	}
	s.chains++
	s.requests, s.settled = 0, 0

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return err
	}
	validators := []chain.Address{
		chain.AddressFromString("validator-0"),
		chain.AddressFromString("validator-1"),
		chain.AddressFromString("validator-2"),
	}
	network, err := chain.NewNetwork(registry, validators, map[chain.Address]uint64{
		ownerAcct: initialBalance, userAcct: initialBalance, cloudAcct: initialBalance,
	})
	if err != nil {
		return err
	}
	if s.topo == topoInproc {
		s.chain = localChain{network}
	} else if err := s.serveChain(network); err != nil {
		return err
	}
	rc, err := s.chain.Mine(contract.DeployTx(ownerAcct, 0, s.accPub, s.owner.Ac(), 10_000_000))
	if err != nil {
		return err
	}
	if !rc.Status {
		return fmt.Errorf("contract deployment reverted: %s", rc.Err)
	}
	s.contract = rc.ContractAddress
	return nil
}

// chainDir is the current chain's data directory.
func (s *system) chainDir() string {
	return filepath.Join(s.dataDir, fmt.Sprintf("chain-%d", s.chains))
}

func (s *system) serveChain(network *chain.Network) error {
	srv := wire.NewChainServer(network)
	if s.reg != nil {
		srv.SetObservability(s.reg, nil)
	}
	if s.topo == topoDurable {
		if _, err := srv.EnableDurability(durability(s.chainDir(), s.chainFS)); err != nil {
			return err
		}
	}
	s.chainUp = append(s.chainUp, srv.Close)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	cli, err := wire.DialChain(addr)
	if err != nil {
		return err
	}
	s.chainUp = append(s.chainUp, cli.Close)
	s.chain = cli
	return nil
}
