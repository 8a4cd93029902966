package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"khazana"
	"khazana/kfs"
)

// kfs-churn: 3 in-process nodes, kfs mounted on nodes 1 and 2. One op is
// one file lifecycle: create and write 1-13 KB of seeded bytes on node 1,
// a cold GetAttr of the new inode on node 3, open, read and verify on
// node 2, then remove on node 2 the file created kfLive lifecycles
// earlier, so kfLive files stay live.
const (
	kfLive    = 64
	kfMinSize = 1 << 10
	kfMaxSize = 13 << 10
)

func kfName(lifecycle int) string { return fmt.Sprintf("/f%06d", lifecycle) }

// kfContents returns lifecycle l's seeded file bytes.
func kfContents(m *model, l int) []byte {
	size := kfMinSize + int(mix(m.seed, uint64(l), 0xf11e, 0)%(kfMaxSize-kfMinSize+1))
	buf := make([]byte, (size+pageSize-1)/pageSize*pageSize)
	for p := 0; p*pageSize < size; p++ {
		m.stamp(buf[p*pageSize:(p+1)*pageSize], l, p, 1)
	}
	return buf[:size]
}

func setupKFSChurn(ctx context.Context, e *env) (*instance, error) {
	c, err := khazana.NewCluster(3, khazana.WithStoreDir(e.dir))
	if err != nil {
		return nil, err
	}
	inst := &instance{nodes: c.Nodes(), close: c.Close}
	inst.transport = func() (uint64, uint64) { return c.Network.Stats() }
	m := newModel(e.seed, 0)
	e.model = m
	fail := func(err error) (*instance, error) {
		c.Close()
		return nil, err
	}
	super, err := kfs.Mkfs(ctx, c.Node(1), principal, khazana.Attrs{})
	if err != nil {
		return fail(fmt.Errorf("mkfs: %w", err))
	}
	fs1, err := kfs.Mount(ctx, c.Node(1), super, principal)
	if err != nil {
		return fail(fmt.Errorf("mount node 1: %w", err))
	}
	fs2, err := kfs.Mount(ctx, c.Node(2), super, principal)
	if err != nil {
		return fail(fmt.Errorf("mount node 2: %w", err))
	}
	cold := c.Node(3)

	lifecycle := func(ctx context.Context, l int, rec *recorder) error {
		data := kfContents(m, l)
		name := kfName(l)
		h := rec.begin("kfs", "kfs.Create")
		f, err := fs1.Create(ctx, name)
		rec.end(h)
		if err != nil {
			return err
		}
		h = rec.begin("kfs", "kfs.WriteAt")
		_, err = f.WriteAt(ctx, data, 0)
		rec.end(h)
		if err != nil {
			return err
		}
		m.live[name] = true

		// Node 3 has never seen this inode: the lookup is cold. Only the
		// range and home are checked, since a ring-served descriptor can
		// trail the home's latest state.
		h = rec.begin("ring", "Node.GetAttr")
		d, err := cold.GetAttr(ctx, f.InodeAddr())
		rec.end(h)
		if err != nil {
			return err
		}
		if d.Range.Start != f.InodeAddr() || d.Range.Size != kfs.BlockSize || len(d.Home) == 0 || d.Home[0] != 1 {
			return checked(fmt.Errorf("%s: cold descriptor %v homes %v, want inode %v on node 1", name, d.Range, d.Home, f.InodeAddr()))
		}

		h = rec.begin("kfs", "kfs.Open")
		g, err := fs2.Open(ctx, name)
		rec.end(h)
		if err != nil {
			return err
		}
		got := make([]byte, len(data))
		h = rec.begin("kfs", "kfs.ReadAt")
		n, err := g.ReadAt(ctx, got, 0)
		rec.end(h)
		if err != nil {
			return err
		}
		if n != len(data) || !bytes.Equal(got, data) {
			return checked(fmt.Errorf("%s: read %d bytes differing from the %d written (first difference at %d)", name, n, len(data), firstDiff(got[:n], data)))
		}

		if old := l - kfLive; old >= 0 {
			h = rec.begin("kfs", "kfs.Remove")
			err = fs2.Remove(ctx, kfName(old))
			rec.end(h)
			if err != nil {
				return err
			}
			delete(m.live, kfName(old))
		}
		return nil
	}
	// Data load: the first kfLive files, so every timed op runs against
	// the same live-set size.
	for l := 0; l < kfLive; l++ {
		if err := lifecycle(ctx, l, nil); err != nil {
			return fail(fmt.Errorf("load file %d: %w", l, err))
		}
	}
	inst.op = func(ctx context.Context, _ int, i int, rec *recorder) error {
		return lifecycle(ctx, kfLive+i, rec)
	}
	inst.finish = func(ctx context.Context) error {
		entries, err := fs2.ReadDir(ctx, "/")
		if err != nil {
			return err
		}
		got := make([]string, 0, len(entries))
		for _, e := range entries {
			got = append(got, "/"+e.Name)
		}
		return checked(sameSet(got, m.live))
	}
	inst.ping = inprocPinger(c)
	settle(c.Nodes())
	return inst, nil
}

// sameSet reports how names differs from the model's live set.
func sameSet(names []string, live map[string]bool) error {
	seen := make(map[string]bool, len(names))
	var extra, missing []string
	for _, n := range names {
		seen[n] = true
		if !live[n] {
			extra = append(extra, n)
		}
	}
	for n := range live {
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	if len(extra) == 0 && len(missing) == 0 && len(names) == len(live) {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("directory listing differs from the model: %d entries, want %d; extra [%s], missing [%s]",
		len(names), len(live), strings.Join(extra, " "), strings.Join(missing, " "))
}
