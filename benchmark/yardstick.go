package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// The yardstick is a fixed piece of work of the kind the program does:
// split tab-separated records into fields, group them by key in a hash
// table, sort the groups, encode them and digest the encoding. It
// allocates nothing and touches nothing of the program's, so how long it
// takes says how fast this host runs such code at this moment and nothing
// else. The host is a guest on shared cores: the CPU time of the same work
// moves by a quarter to a half from one five minutes to the next with
// what the neighbours do (a busy sibling thread, a shared cache), and the
// yardstick moves with it. Every time the benchmark reports is therefore
// the measured CPU time × yardNominal ÷ the yardstick's CPU time beside
// it: milliseconds on a host that runs the yardstick in yardNominal.
const (
	yardRecords = 12000
	yardKeys    = 3000
	yardSlots   = 1 << 13 // open addressing, under half full

	// yardNominal is one tick on this host when the neighbours are quiet,
	// so that a reported time reads as the time on a quiet host. It is a
	// constant of the benchmark: changing it rescales every timing metric.
	yardNominal = 1200 * time.Microsecond
)

type yardstick struct {
	recs [][]byte // key \t int \t int \t filler

	key   [yardSlots][]byte // nil: the slot is empty
	count [yardSlots]uint32
	sum   [yardSlots]int64
	used  []uint16 // the slots in use; sorted by key before encoding
	out   []byte

	want uint64 // the digest every tick must produce
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(7)) // the same work in every run, whatever -seed
	var b bytes.Buffer
	var ends []int
	for i := 0; i < yardRecords; i++ {
		fmt.Fprintf(&b, "key%05d\t%d\t%d\t", rng.Intn(yardKeys), rng.Intn(100000), rng.Intn(50))
		for j := 0; j < 60; j++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		ends = append(ends, b.Len())
	}
	y := &yardstick{used: make([]uint16, 0, yardKeys), out: make([]byte, 0, 32*yardKeys)}
	all, start := b.Bytes(), 0
	for _, end := range ends {
		y.recs = append(y.recs, all[start:end:end])
		start = end
	}
	y.want = y.work()
	return y
}

// tick does the work twice, the first time to bring it into the caches
// whatever ran before, and returns the CPU time of the second.
func (y *yardstick) tick() (time.Duration, error) {
	y.work()
	t0 := cpuTime()
	got := y.work()
	d := cpuTime() - t0
	if got != y.want {
		return 0, fmt.Errorf("yardstick: digest %016x, want %016x", got, y.want)
	}
	return d, nil
}

// ticks takes n ticks.
func (y *yardstick) ticks(n int) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		var err error
		if ds[i], err = y.tick(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// typical is the median of ticks taken beside one measured interval.
// The work is fixed, so a tick far from its neighbours met something that
// is not the host's speed, mostly the garbage collector's worker taking
// the thread for a slice; the median leaves it out, which also keeps how
// much the program allocates out of the yardstick.
func typical(ticks []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ticks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// against converts a CPU time measured beside a tick of length tick into
// time at the yardstick's nominal speed.
func against(d, tick time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(yardNominal) / float64(tick))
}

func (y *yardstick) work() uint64 {
	for _, s := range y.used {
		y.key[s], y.count[s], y.sum[s] = nil, 0, 0
	}
	y.used = y.used[:0]
	for _, r := range y.recs {
		i := bytes.IndexByte(r, '\t')
		j := i + 1 + bytes.IndexByte(r[i+1:], '\t')
		k := j + 1 + bytes.IndexByte(r[j+1:], '\t')
		key := r[:i]
		h := uint32(2166136261)
		for _, c := range key {
			h = (h ^ uint32(c)) * 16777619
		}
		s := h % yardSlots
		for y.key[s] != nil && !bytes.Equal(y.key[s], key) {
			s = (s + 1) % yardSlots
		}
		if y.key[s] == nil {
			y.key[s] = key
			y.used = append(y.used, uint16(s))
		}
		y.count[s]++
		y.sum[s] += atoi(r[i+1:j]) * atoi(r[j+1:k])
	}
	sort.Sort(y)
	y.out = y.out[:0]
	for _, s := range y.used {
		y.out = append(y.out, y.key[s]...)
		y.out = binary.AppendVarint(y.out, y.sum[s])
		y.out = binary.AppendUvarint(y.out, uint64(y.count[s]))
	}
	h := uint64(14695981039346656037)
	for _, c := range y.out {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func atoi(b []byte) int64 {
	var v int64
	for _, c := range b {
		v = v*10 + int64(c-'0')
	}
	return v
}

// sort.Interface over the slots in use, by key.
func (y *yardstick) Len() int           { return len(y.used) }
func (y *yardstick) Less(i, j int) bool { return bytes.Compare(y.key[y.used[i]], y.key[y.used[j]]) < 0 }
func (y *yardstick) Swap(i, j int)      { y.used[i], y.used[j] = y.used[j], y.used[i] }
