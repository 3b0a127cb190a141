package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// unlinedErrors are the reader errors that name no line, as in
// TestReadCSVMalformedRows: a missing or malformed header, and the
// checks that run over the whole table after its last row.
var unlinedErrors = []string{
	"reading header",
	"unexpected CSV header",
	"column in header",
	"no readings",
	"readings span",
	"no VMs",
	"ragged series",
	"outside [0,100]",
}

// maxFuzzInput bounds a fuzz input. A cluster dump forward-fills every
// VM over the whole span (up to maxClusterTicks), so memory grows with
// VMs × span; a few kilobytes still reach every parsing path.
const maxFuzzInput = 4 << 10

// checkReader is the property both trace readers share: no panic; a
// rejection names its line unless it is a header or whole-table
// error; an accepted trace passes Validate; and its native CSV is a
// fixed point, i.e. writing, reading and writing again gives the
// bytes of the first write.
func checkReader(t *testing.T, read func(io.Reader) (*Trace, error), data []byte) {
	t.Helper()
	tr, err := read(bytes.NewReader(data))
	if err != nil {
		msg := err.Error()
		if strings.Contains(msg, "line ") {
			return
		}
		for _, ok := range unlinedErrors {
			if strings.Contains(msg, ok) {
				return
			}
		}
		t.Fatalf("error names no line: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("accepted trace fails Validate: %v", err)
	}
	var first, second bytes.Buffer
	if err := tr.WriteCSV(&first); err != nil {
		t.Fatalf("accepted trace does not write: %v", err)
	}
	back, err := ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("written trace does not read back: %v\n%s", err, first.Bytes())
	}
	if err := back.WriteCSV(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write∘read∘write differs from write:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}

// FuzzReadCSV feeds arbitrary bytes to the native CSV reader. Every
// evaluated epoch trusts the trace it was given, so the reader's
// checks are what stand between a file and the simulator.
func FuzzReadCSV(f *testing.F) {
	header := "vm_id,class,sample,cpu_pct,mem_pct\n"
	f.Add([]byte(header + "0,low-mem,0,10.5,5\n0,low-mem,1,11,6\n3,high-mem,0,99.9996,43\n3,high-mem,1,0,-0\n"))
	f.Add([]byte(header + "-4,mid-mem,0,1e-9,100\n"))
	f.Add([]byte(header + "0,low-mem,0,10,5\n1,low-mem,0,10,5\n1,low-mem,1,10,5\n"))
	f.Add([]byte(header + "x,low-mem,0,10,5\n"))
	f.Add([]byte(header + "0,huge-mem,0,10,5\n"))
	f.Add([]byte(header + "0,low-mem,1,10,5\n"))
	f.Add([]byte(header + "0,low-mem,0\n"))
	f.Add([]byte(header + "0,low-mem,0,NaN,5\n"))
	f.Add([]byte(header + "0,low-mem,0,10,\"5\n"))
	f.Add([]byte(header))
	f.Add([]byte("a,b,c\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			return
		}
		checkReader(t, ReadCSV, data)
	})
}

// FuzzReadClusterCSV does the same for the cluster-dump adapter, whose
// unit detection, downsampling and forward fill all run on
// attacker-shaped timestamps and readings.
func FuzzReadClusterCSV(f *testing.F) {
	f.Add([]byte("vm_id,extra,timestamp,cpu_util,mem_util\nb,x,0,0.40,0.10\na,x,0,0.10,0.30\na,x,150,0.30,0.30\na,x,600,0.90,0.70\nb,x,700,0.60,0.10\n"))
	f.Add([]byte("time,instance_id,avg_cpu\n600000000000,1,50\n600300000000,2,30\n600300000000,1,70\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n-1000,1,50\n-10,1,60\n-5,2,70\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n0,1,50\n0,01,60\n300,+1,70\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n0,1,50\n1,1,55\n99999999999,1,60\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n-1e300,1,50\n1e300,1,60\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n0,1,50\n1e300,1,60\n"))
	f.Add([]byte("timestamp,vm_id,cpu,mem\n0,1,1e308\n0,1,1e308,1e308\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n0,,50\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n0,1,-1\n"))
	f.Add([]byte("timestamp,vm_id,cpu\nInf,1,1\n"))
	f.Add([]byte("timestamp,vm_id\n0,1\n"))
	f.Add([]byte("timestamp,vm_id,cpu\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			return
		}
		checkReader(t, ReadClusterCSV, data)
	})
}
