package transport

import (
	"errors"
	"testing"
)

func closeAll(eps []Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// TestChaosBudgets pins the count schedules: CrashAfterSends and
// CrashAfterRecvs let exactly that many operations through and crash on the
// next, frames sent before the crash stay deliverable, zero budgets never
// fire, and over a TagMux lane sends and tagged receives count against the
// same budgets instead of bypassing them.
func TestChaosBudgets(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, eps []Endpoint)
	}{
		{"send-budget", func(t *testing.T, eps []Endpoint) {
			c := WithChaos(eps[0], ChaosConfig{CrashAfterSends: 2})
			for _, m := range []string{"a", "b"} {
				if err := c.Send(1, []byte(m)); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Send(1, []byte("c")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("third send: got %v, want ErrCrashed", err)
			}
			for _, want := range []string{"a", "b"} {
				if got, err := eps[1].Recv(0); err != nil || string(got) != want {
					t.Fatalf("Recv = (%q, %v), want %q", got, err, want)
				}
			}
		}},
		{"recv-budget", func(t *testing.T, eps []Endpoint) {
			c := WithChaos(eps[1], ChaosConfig{CrashAfterRecvs: 1})
			for _, m := range []string{"x", "y"} {
				if err := eps[0].Send(1, []byte(m)); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := c.Recv(0); err != nil || string(got) != "x" {
				t.Fatalf("first recv = (%q, %v)", got, err)
			}
			if _, err := c.Recv(0); !errors.Is(err, ErrCrashed) {
				t.Fatalf("second recv: got %v, want ErrCrashed", err)
			}
			if err := c.Send(0, []byte("z")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("send after the crash: got %v, want ErrCrashed", err)
			}
		}},
		{"unlimited", func(t *testing.T, eps []Endpoint) {
			c := WithChaos(eps[0], ChaosConfig{})
			for i := 0; i < 10; i++ {
				if err := c.Send(1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			// Stats and identity delegate to the wrapped endpoint.
			if c.ID() != 0 || c.N() != 2 {
				t.Fatal("identity not delegated")
			}
			if n := c.Stats().MsgsSent.Load(); n != 10 {
				t.Fatalf("stats not delegated: %d", n)
			}
		}},
		{"tagmux-lanes", func(t *testing.T, eps []Endpoint) {
			mux0, mux1 := NewTagMux(eps[0]), NewTagMux(eps[1])
			c, ok := WithChaos(mux0, ChaosConfig{CrashAfterSends: 2}).(TaggedEndpoint)
			if !ok {
				t.Fatal("WithChaos over a TagMux must stay a TaggedEndpoint")
			}
			if err := c.Lane(7).Send(1, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(1, []byte("b")); err != nil { // lane 0, shares the budget
				t.Fatal(err)
			}
			if err := c.Lane(7).Send(1, []byte("c")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("third send (via lane) must hit the shared budget, got %v", err)
			}
			// Frames sent before the crash arrive with their tags intact.
			if tag, b, err := mux1.RecvTagged(0); err != nil || tag != 7 || string(b) != "a" {
				t.Fatalf("RecvTagged = (%d, %q, %v), want (7, \"a\", nil)", tag, b, err)
			}
			if b, err := mux1.Recv(0); err != nil || string(b) != "b" {
				t.Fatalf("Recv = (%q, %v)", b, err)
			}
			// The recv budget gates tagged receives and lane receives alike.
			rx := NewMemoryNetwork(2, 16)
			defer closeAll(rx)
			tx := NewTagMux(rx[0])
			g := WithChaos(NewTagMux(rx[1]), ChaosConfig{CrashAfterRecvs: 1}).(TaggedEndpoint)
			for _, m := range []string{"x", "y"} {
				if err := tx.Lane(9).Send(1, []byte(m)); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := g.RecvTagged(0); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Lane(9).Recv(0); !errors.Is(err, ErrCrashed) {
				t.Fatalf("second tagged recv must hit the shared budget, got %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := NewMemoryNetwork(2, 16)
			defer closeAll(eps)
			tc.run(t, eps)
		})
	}
}

// TestChaosDeterministic pins the chaos injector's schedule: the same seed
// over the same operation sequence crashes at the same operation.
func TestChaosDeterministic(t *testing.T) {
	run := func(seed int64) (int, error) {
		eps := NewMemoryNetwork(2, 1024)
		defer closeAll(eps)
		c := WithChaos(eps[0], ChaosConfig{Seed: seed, ResetProb: 0.02})
		for i := 0; i < 1000; i++ {
			if err := c.Send(1, []byte{byte(i)}); err != nil {
				return i, err
			}
			b, err := eps[1].Recv(0)
			if err != nil {
				return i, err
			}
			_ = b
		}
		return -1, nil
	}
	i1, err1 := run(42)
	i2, err2 := run(42)
	if i1 != i2 || !errors.Is(err1, ErrCrashed) || !errors.Is(err2, ErrCrashed) {
		t.Fatalf("chaos not deterministic: run1=(%d,%v) run2=(%d,%v)", i1, err1, i2, err2)
	}
	i3, _ := run(43)
	if i3 == i1 {
		t.Logf("different seeds crashed at the same op (%d); legal but suspicious", i3)
	}
}

// TestChaosCrashAfterSends pins the send-count schedule.
func TestChaosCrashAfterSends(t *testing.T) {
	eps := NewMemoryNetwork(2, 64)
	defer closeAll(eps)
	c := WithChaos(eps[0], ChaosConfig{Seed: 1, CrashAfterSends: 3})
	for i := 0; i < 3; i++ {
		if err := c.Send(1, []byte("m")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Send(1, []byte("m")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("4th send: got %v, want ErrCrashed", err)
	}
	if !c.(*ChaosEndpoint).Crashed() {
		t.Fatal("endpoint should report crashed")
	}
}

// TestChaosCrashAtLevel verifies the barrier-keyed schedule: the crash
// fires a few operations after the configured AdvanceLevel mark, and the
// tagged wrapper preserves lane routing.
func TestChaosCrashAtLevel(t *testing.T) {
	eps := NewMemoryNetwork(2, 1024)
	defer closeAll(eps)
	c := WithChaos(NewTagMux(eps[0]), ChaosConfig{Seed: 5, CrashAtLevel: 2})
	tc, ok := c.(TaggedEndpoint)
	if !ok {
		t.Fatal("WithChaos over a TagMux must stay a TaggedEndpoint")
	}
	marker := c.(LevelMarker)
	send := func() error { return tc.Lane(3).Send(1, []byte("z")) }

	// Level 1: many ops, no crash.
	for i := 0; i < 50; i++ {
		if err := send(); err != nil {
			t.Fatalf("pre-schedule op %d failed: %v", i, err)
		}
	}
	marker.AdvanceLevel()
	for i := 0; i < 50; i++ {
		if err := send(); err != nil {
			t.Fatalf("level-2 op %d failed: %v", i, err)
		}
	}
	marker.AdvanceLevel() // arms the crash
	var crashed bool
	for i := 0; i < 50; i++ {
		if err := send(); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("op %d: got %v, want ErrCrashed", i, err)
			}
			if i >= 8 {
				t.Fatalf("crash fired %d ops after the barrier, want < 8", i)
			}
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("crash-at-level schedule never fired")
	}
}
