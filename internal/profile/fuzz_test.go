package profile

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzDecode hardens the canonical binary decoder against corrupted input:
// it must error or succeed, never panic or over-allocate, and agree with the
// streaming reference decoder — same sample, same error text — whether it
// parses a *Dump in place or reads another reader, byte by byte included.
func FuzzDecode(f *testing.F) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte("IGMN\x01\x00\x00\x00\xff\xff\xff\xff\x7f"))
	f.Add([]byte("IGMN\x01\x00\x00\x00\x01\x05ab"))
	f.Add([]byte("IGMN\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("IGMN\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("IGMN\x01\x00\x00\x00\x01\xd0\x0fab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecode(bytes.NewReader(data))
		for _, r := range []io.Reader{
			NewDump(data, "", 0),
			bytes.NewReader(data),
			iotest.OneByteReader(bytes.NewReader(data)),
		} {
			s, err := Decode(r)
			if err == nil && s == nil {
				t.Fatal("nil sample with nil error")
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(s, want) {
				t.Fatalf("%T: Decode = %+v, %v; reference %+v, %v", r, s, err, want, wantErr)
			}
		}
	})
}
