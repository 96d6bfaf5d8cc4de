// pivot-party runs ONE participant of a Pivot federation as its own process
// over TCP — the deployment shape of the paper's LAN testbed.  Start m+1
// processes: ids 0..m-1 are the clients (id 0 is the super client and must
// have the labels in its CSV), id m is the offline-phase dealer.
//
// Each client holds only its own vertical slice: a CSV whose columns are its
// features, plus a `label` column at the super client (other clients use a
// dummy label column of zeros, which is ignored).
//
// Example (3 clients + dealer, four terminals):
//
//	pivot-party -role dealer -id 3 -addrs $A
//	pivot-party -id 2 -data c2.csv            -addrs $A
//	pivot-party -id 1 -data c1.csv            -addrs $A
//	pivot-party -id 0 -data c0.csv -classes 2 -addrs $A
//
// with A="h0:9000,h1:9001,h2:9002,h3:9003".
//
// Key setup: client 0 generates the threshold key material and distributes
// the partial keys at startup (a stand-in for the paper's DKG ceremony —
// see DESIGN.md "Substitutions"; do not use as-is in production).
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mpc"
	"repro/internal/paillier"
	"repro/internal/transport"
)

func main() {
	role := flag.String("role", "client", "client | dealer")
	id := flag.Int("id", 0, "party index (dealer uses the last index)")
	addrs := flag.String("addrs", "", "comma-separated listen addresses for ALL parties incl. dealer")
	dataPath := flag.String("data", "", "this client's vertical slice (CSV)")
	classes := flag.Int("classes", 0, "number of classes (0 = regression); super client only")
	depth := flag.Int("depth", 4, "max tree depth")
	splits := flag.Int("splits", 8, "max splits per feature")
	keyBits := flag.Int("keybits", 512, "threshold Paillier key size")
	protocol := flag.String("protocol", "basic", "basic | enhanced")
	seed := flag.Int64("seed", 7, "shared protocol seed (must match across parties)")
	out := flag.String("out", "model.json", "model output (client 0)")
	sendQueue := flag.Int64("sendqueue", 0, "per-peer send-queue high-water mark in bytes (0 = default)")
	reconnect := flag.Bool("reconnect", false, "run every peer wire over the reliable transport: sequence-numbered acknowledged frames, automatic redial and resume after a dropped link (all parties must agree)")
	heartbeat := flag.Duration("heartbeat", 0, "keepalive interval for -reconnect wires; a peer missing 3 beats is redialed (0 = no heartbeats)")
	resumeTimeout := flag.Duration("resume-timeout", 0, "how long a broken -reconnect wire keeps redialing before failing terminally (0 = 10s default)")
	dialTimeout := flag.Duration("dial-timeout", 0, "per-peer dial bound during mesh bring-up and redials (0 = 15s default)")
	flag.Parse()
	if *role != "client" && *role != "dealer" {
		fmt.Fprintf(os.Stderr, "pivot-party: unknown role %q (client | dealer)\n", *role)
		os.Exit(2)
	}
	proto := core.Basic
	switch *protocol {
	case "basic":
	case "enhanced":
		proto = core.Enhanced
	default:
		fmt.Fprintf(os.Stderr, "pivot-party: unknown protocol %q (basic | enhanced)\n", *protocol)
		os.Exit(2)
	}

	addrList := strings.Split(*addrs, ",")
	if len(addrList) < 3 {
		fail(fmt.Errorf("need at least 2 clients + 1 dealer in -addrs"))
	}
	m := len(addrList) - 1

	ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
		Addrs:          addrList,
		SendQueueBytes: *sendQueue,
		Reconnect:      *reconnect,
		Heartbeat:      *heartbeat,
		ResumeTimeout:  *resumeTimeout,
		DialTimeout:    *dialTimeout,
	}, *id)
	if err != nil {
		fail(err)
	}
	defer ep.Close()

	if *role == "dealer" {
		fmt.Printf("dealer up on %s, serving %d clients\n", addrList[*id], m)
		if err := mpc.RunDealer(ep, mpc.DealerConfig{Seed: *seed}); err != nil {
			fail(err)
		}
		return
	}

	// Key distribution: client 0 deals the threshold keys (see file docs)
	// and announces the public class count, which every client needs — the
	// per-node protocols branch on classification vs regression, so a
	// diverging local value would desynchronize the conversion step.
	var pk *paillier.PublicKey
	var myKey *paillier.PartialKey
	if *id == 0 {
		var keys []*paillier.PartialKey
		pk, _, keys, err = paillier.KeyGen(rand.Reader, *keyBits, m)
		if err != nil {
			fail(err)
		}
		myKey = keys[0]
		for c := 1; c < m; c++ {
			// The integer share of the threshold exponent is bigger than N
			// (it carries 80 bits of statistical masking) and may be
			// negative, so it travels as sign + magnitude — a ring encoding
			// mod N would destroy it.
			share := keys[c].DShare
			sign := big.NewInt(0)
			if share.Sign() < 0 {
				sign.SetInt64(1)
			}
			msg := []*big.Int{pk.N, new(big.Int).Abs(share), sign, big.NewInt(int64(*classes))}
			if err := transport.SendInts(ep, c, msg); err != nil {
				fail(err)
			}
		}
	} else {
		xs, err := transport.RecvInts(ep, 0)
		if err != nil {
			fail(err)
		}
		if len(xs) != 4 {
			fail(fmt.Errorf("malformed key material from client 0"))
		}
		pk = &paillier.PublicKey{N: xs[0], N2: new(big.Int).Mul(xs[0], xs[0])}
		share := xs[1]
		if xs[2].Sign() != 0 {
			share = share.Neg(share)
		}
		myKey = &paillier.PartialKey{Index: *id, DShare: share}
		*classes = int(xs[3].Int64())
	}

	ds, err := dataset.LoadCSVFile(*dataPath, *classes)
	if err != nil {
		fail(err)
	}
	part := &dataset.Partition{
		Client: *id, N: ds.N(), Classes: *classes, X: ds.X,
		Features: identity(ds.D()),
	}
	if *id == 0 {
		part.Y = ds.Y
	}

	cfg := core.DefaultConfig()
	cfg.KeyBits = *keyBits
	cfg.Seed = *seed
	cfg.Tree = core.TreeHyper{MaxDepth: *depth, MaxSplits: *splits, MinSamplesSplit: 2, LeafOnZeroGain: true}
	cfg.Protocol = proto

	// Standalone parties own their key copy, so each enables its own
	// randomness pool (in-process sessions share one via core.NewSession).
	if cfg.PoolCapacity >= 0 {
		if _, err := pk.EnablePool(paillier.PoolConfig{Workers: cfg.PoolWorkers, Capacity: cfg.PoolCapacity}); err != nil {
			fail(err)
		}
		defer pk.DisablePool()
	}

	p, err := core.NewParty(ep, part, pk, myKey, m, cfg)
	if err != nil {
		fail(err)
	}
	model, err := p.TrainDT()
	if err != nil {
		fail(err)
	}
	p.Close()
	fmt.Printf("client %d: trained tree with %d internal nodes\n", *id, model.InternalNodes())
	if *id == 0 {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := model.Save(f); err != nil {
			fail(err)
		}
		fmt.Printf("client 0: wrote %s\n", *out)
	}
}

func identity(d int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = i
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pivot-party:", err)
	os.Exit(1)
}
