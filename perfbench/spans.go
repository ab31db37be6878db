package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// writeChromeTrace exports the traced run's spans as Chrome trace-event
// JSON in the layout `quicsand -trace-out` writes, so Perfetto loads
// both the same way: process 1 is the single-goroutine chain, one
// track per layer, one span per layer and slice of sliceItems packets
// (anchored at the slice start, lasting the layer's estimated self
// time in that slice); process 2 is the workers=2 streaming pass, with
// sampled Offer calls aggregated per slice and each checkpoint's
// freeze, encode and reduce parts.
func writeChromeTrace(out io.Writer, workload string, c *chain, d *driverPass) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "  {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%q}}",
		workload+" traced chain (1 goroutine)")
	fmt.Fprintf(bw, ",\n  {\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":%q}}",
		fmt.Sprintf("%s streaming pass (workers=%d)", workload, workers))
	track := func(pid, tid int, name string) {
		fmt.Fprintf(bw, ",\n  {\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%q}}", pid, tid, name)
		fmt.Fprintf(bw, ",\n  {\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", pid, tid, tid)
	}
	span := func(pid, tid int, name string, tsNS, durNS int64, items uint64) {
		fmt.Fprintf(bw, ",\n  {\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"cat\":\"stage\",\"name\":%q,\"args\":{\"items\":%d}}",
			pid, tid, float64(tsNS)/1e3, float64(durNS)/1e3, name, items)
	}

	for l := layer(0); l < numLayers; l++ {
		track(1, int(l)+1, l.String())
	}
	var prev mark
	for _, m := range c.marks {
		for l := layer(0); l < numLayers; l++ {
			if items := m.items[l] - prev.items[l]; items > 0 {
				// A slice of a cheap layer can estimate below zero once the
				// clock latency is subtracted; a span cannot be shorter than 0.
				span(1, int(l)+1, l.String(), prev.atNS, max(m.ns[l]-prev.ns[l], 0), items)
			}
		}
		prev = m
	}

	const (
		tidOffer = 1 + iota
		tidFreeze
		tidEncode
		tidReduce
	)
	for i, name := range []string{"stream.offer", "ckpt.freeze", "ckpt.encode", "ckpt.reduce"} {
		track(2, tidOffer+i, name)
	}
	perSlice := sliceItems / sampleEvery
	for i := 0; i < len(d.offerNS); i += perSlice {
		end := min(i+perSlice, len(d.offerNS))
		var sum float64
		for _, v := range d.offerNS[i:end] {
			sum += v
		}
		span(2, tidOffer, "stream.offer", d.offerAt[i], int64(sum*sampleEvery), uint64(end-i)*sampleEvery)
	}
	for i, at := range d.ckptAt {
		freeze := int64(d.freezeMS[i] * 1e6)
		encode := int64(d.encodeMS[i] * 1e6)
		span(2, tidFreeze, "ckpt.freeze", at, freeze, 1)
		span(2, tidEncode, "ckpt.encode", at+freeze, encode, 1)
		span(2, tidReduce, "ckpt.reduce", at+freeze+encode, int64(d.reduceMS[i]*1e6), 1)
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraceFile creates path and writes the Chrome trace into it.
func writeTraceFile(path, workload string, c *chain, d *driverPass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, workload, c, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
