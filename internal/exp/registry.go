package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
)

// registry is the process-wide experiment catalogue. Specs are stored as
// master copies; Lookup and List hand out clones, so callers can scale a
// built-in down (shorter horizon, fewer points) without corrupting the
// registry for everyone else.
var registry = struct {
	sync.RWMutex
	specs map[string]*Spec
	order []string // registration order, the -list display order
}{specs: map[string]*Spec{}}

// Register adds a spec to the process-wide registry. The spec must have a
// name, must compile (so every registered experiment is runnable by
// construction), and must not collide with an already-registered name.
// Register stores a clone: later mutation of the argument does not affect
// the registry.
func Register(s *Spec) error {
	if s == nil || s.Name == "" {
		return fmt.Errorf("exp: cannot register a spec without a name")
	}
	if _, err := s.Compile(); err != nil {
		return fmt.Errorf("exp: register %q: %w", s.Name, err)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("exp: experiment %q is already registered", s.Name)
	}
	registry.specs[s.Name] = s.Clone()
	registry.order = append(registry.order, s.Name)
	return nil
}

// MustRegister is Register for init-time built-ins: it panics on error.
func MustRegister(s *Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns a clone of the named experiment, or false. Mutating the
// clone (e.g. swapping in a shorter task axis) never affects the registry.
func Lookup(name string) (*Spec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// List returns clones of every registered experiment in registration order
// (built-ins first, in the order builtins.go declares them).
func List() []*Spec {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Spec, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.specs[name].Clone())
	}
	return out
}

// Names returns the sorted registered experiment names — for "unknown
// experiment" error messages.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := append([]string(nil), registry.order...)
	sort.Strings(out)
	return out
}

// Summarize renders one line of shape metadata for a spec — variant and
// axis counts plus the expanded job total — used by CLI -list output.
func Summarize(s *Spec) string {
	c, err := s.Compile()
	if err != nil {
		return fmt.Sprintf("invalid: %v", err)
	}
	axes := make([]string, 0, len(s.Axes))
	for _, a := range s.Axes {
		axes = append(axes, fmt.Sprintf("%s[%d]", a.Kind.key(), a.len()))
	}
	if len(axes) == 0 {
		axes = append(axes, "fixed")
	}
	return fmt.Sprintf("%d variants × %s = %d runs", len(s.Variants), strings.Join(axes, "×"), len(c.Jobs))
}

// WriteRegistry renders the registry as an aligned table — each
// experiment's name, shape (Summarize), axes with their value ranges, and
// description — the CLIs' -list output.
func WriteRegistry(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "experiment\tshape\taxes\tdescription\t\n")
	for _, s := range List() {
		axes := make([]string, len(s.Axes))
		for i, a := range s.Axes {
			axes[i] = a.String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n",
			s.Name, Summarize(s), strings.Join(axes, " "), s.Description)
	}
	return tw.Flush()
}
