package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
)

// pbuf is a minimal protobuf writer for building synthetic profiles.
type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pbuf) num(field int, v uint64) {
	b.varint(uint64(field) << 3)
	b.varint(v)
}

func (b *pbuf) msg(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pbuf) packed(field int, vs ...uint64) {
	var p pbuf
	for _, v := range vs {
		p.varint(v)
	}
	b.msg(field, p.Bytes())
}

// syntheticProfile builds a gzipped CPU profile with known stacks:
//
//	leaf <- apply <- Run <- main        10 ns  -> sched.apply (innermost entry)
//	leaf <- Run <- main                 20 ns  -> sim
//	leaf <- main                         5 ns  -> other
//	[phase1 inlined in Solve] <- apply   7 ns  -> lp.phase1 (inlined frame counts)
//	Run, one location, unpacked fields   3 ns  -> sim
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"main.leaf", "lips/internal/sched.(*LiPS).apply", "lips/internal/sim.(*Sim).Run",
		"runtime.main", "lips/internal/lp.(*Problem).Solve", "lips/internal/lp.(*simplexState).phase1"}
	var p pbuf
	for _, tu := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pbuf
		vt.num(1, tu[0])
		vt.num(2, tu[1])
		p.msg(1, vt.Bytes())
	}
	sample := func(values []uint64, locs ...uint64) {
		var s pbuf
		s.packed(1, locs...)
		s.packed(2, values...)
		p.msg(2, s.Bytes())
	}
	sample([]uint64{1, 10}, 1, 2, 3, 4)
	sample([]uint64{1, 20}, 1, 3, 4)
	sample([]uint64{1, 5}, 1, 4)
	sample([]uint64{1, 7}, 5, 2)
	var s pbuf // unpacked encoding, as runtime/pprof writes short lists
	s.num(1, 3)
	s.num(2, 1)
	s.num(2, 3)
	p.msg(2, s.Bytes())

	location := func(id uint64, funcs ...uint64) {
		var l pbuf
		l.num(1, id)
		for _, f := range funcs {
			var ln pbuf
			ln.num(1, f)
			ln.num(2, 42)
			l.msg(4, ln.Bytes())
		}
		p.msg(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4)
	location(5, 6, 5) // phase1 inlined into Solve: innermost first
	for id, name := range []uint64{5, 6, 7, 8, 9, 10} {
		var f pbuf
		f.num(1, uint64(id+1))
		f.num(2, name)
		p.msg(5, f.Bytes())
	}
	for _, str := range strs {
		p.msg(6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	prof, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := prof.attribute("cpu/nanoseconds", layerEntries)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{stageApply: 10, stageSim: 23, stageOther: 5, stagePhase1: 7}
	if len(got) != len(want) {
		t.Errorf("stages %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("stage %s: %d ns, want %d", k, got[k], v)
		}
	}
	if _, err := prof.attribute("alloc_space/bytes", layerEntries); err == nil {
		t.Error("a missing sample type should be an error")
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input should fail")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2 claims 5 bytes, has 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("a truncated message should fail")
	}
}

// The runtime's own heap profile must parse and carry the column the
// allocation attribution reads.
func TestParseRuntimeHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.valueIndex("alloc_space/bytes"); err != nil {
		t.Fatal(err)
	}
}
