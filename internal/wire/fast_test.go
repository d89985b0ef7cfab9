package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// perfbenchBody is a /batch body in the compact form perfbench's client
// writes: one source and 1,024 targets.
func perfbenchBody() []byte {
	b := []byte(`{"source":17,"targets":[`)
	for i := 0; i < 1024; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i*24+7), 10)
	}
	return append(b, "]}"...)
}

// fallbackBodies holds one body per class the scanner must decline.
var fallbackBodies = map[string]string{
	"json.dumps":           `{"source": 1, "targets": [2, 3]}`,
	"pretty":               "{\n\t\"source\" : 1 ,\n\t\"targets\" : [ 2 ,\r\n 3 ]\n}",
	"leading space":        ` {"source":1,"targets":[2]}`,
	"trailing newline":     "{\"source\":1,\"targets\":[2]}\n",
	"reversed keys":        `{"targets":[2],"source":1}`,
	"pairs":                `{"pairs":[[0,1],[2,3],[-4,2147483647]]}`,
	"pairs spaced":         `{"pairs": [[0, 1], [2, 3]]}`,
	"source only":          `{"source":5}`,
	"targets only":         `{"targets":[1]}`,
	"both forms":           `{"source":1,"targets":[2],"pairs":[[3,4]]}`,
	"escaped key":          `{"sour\u0063e":1,"targets":[2]}`,
	"escaped quote":        `{"sou\"rce":1,"targets":[2]}`,
	"unknown key":          `{"source":1,"targets":[2],"k":3}`,
	"case-folded key":      `{"Source":1,"targets":[2]}`,
	"duplicate key":        `{"source":1,"source":2,"targets":[2]}`,
	"duplicate targets":    `{"source":1,"targets":[2],"targets":[3]}`,
	"float":                `{"source":1.0,"targets":[2]}`,
	"exponent":             `{"source":1,"targets":[2e1]}`,
	"leading zero":         `{"source":1,"targets":[02]}`,
	"null source":          `{"source":null,"targets":[2]}`,
	"null targets":         `{"source":1,"targets":null}`,
	"empty targets":        `{"source":1,"targets":[]}`,
	"empty pairs":          `{"pairs":[]}`,
	"short pair":           `{"pairs":[[1]]}`,
	"long pair":            `{"pairs":[[1,2,3]]}`,
	"empty pair":           `{"pairs":[[]]}`,
	"int32 overflow":       `{"source":2147483648,"targets":[2]}`,
	"int32 underflow":      `{"source":1,"targets":[-2147483649]}`,
	"trailing data":        `{"source":1,"targets":[2]} x`,
	"trailing value":       `{"source":1,"targets":[2]}{}`,
	"string value":         `{"source":"1","targets":[2]}`,
	"empty object":         `{}`,
	"not an object":        `[1,2]`,
	"truncated":            `{"source":1,"targets":[2`,
	"trailing comma":       `{"source":1,"targets":[2,]}`,
	"plus sign":            `{"source":+1,"targets":[2]}`,
	"bare minus":           `{"source":-,"targets":[2]}`,
	"nul between tokens":   "{\"source\":1,\x00\"targets\":[2]}",
	"form feed whitespace": "{\"source\":1,\f\"targets\":[2]}",
	"empty body":           ``,
}

// acceptedBodies holds bodies the scanner must accept.
var acceptedBodies = map[string]string{
	"compact":        `{"source":1,"targets":[2,3]}`,
	"one target":     `{"source":0,"targets":[0]}`,
	"negative zero":  `{"source":-0,"targets":[-0,1]}`,
	"int32 extremes": `{"source":-2147483648,"targets":[2147483647,0,-1]}`,
}

// TestParseBatchMatchesEncodingJSON drives ParseBatch through httptest
// with every fallback class, the accepted shapes and oversized bodies,
// and checks each answer, status and body byte for byte, and each
// decoded request, against DecodeBody's streaming encoding/json decode
// of the same request followed by the same checks.
func TestParseBatchMatchesEncodingJSON(t *testing.T) {
	l := Limits{MaxBatch: 1024, MaxBody: 1 << 14}
	cases := map[string]string{"perfbench": string(perfbenchBody())}
	for k, v := range fallbackBodies {
		cases["fallback "+k] = v
	}
	for k, v := range acceptedBodies {
		cases["accepted "+k] = v
	}
	big := strings.Repeat(" ", int(l.MaxBody))
	cases["oversized"] = `{"source":1,"targets":[2` + big + `]}`
	cases["oversized after a value"] = `{"source":1,"targets":[2]}` + big
	cases["oversized batch"] = `{"pairs":[` + strings.Repeat(`[0,1],`, 1024) + `[0,1]]}`
	for name, body := range cases {
		for _, chunked := range []bool{false, true} {
			newReq := func() *http.Request {
				r := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
				if chunked {
					r.ContentLength = -1
				}
				return r
			}
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			var wantReq BatchRequest
			wantOK := l.DecodeBody(want, newReq(), &wantReq) && l.checkBatch(want, &wantReq)
			gotReq, gotOK := l.ParseBatch(got, newReq())
			if gotOK != wantOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s (chunked %v): got %v %d %q, want %v %d %q", name, chunked,
					gotOK, got.Code, got.Body, wantOK, want.Code, want.Body)
			}
			if !reflect.DeepEqual(gotReq, wantReq) {
				t.Errorf("%s (chunked %v): decoded %+v, want %+v", name, chunked, gotReq, wantReq)
			}
		}
	}
}

// TestScannerClasses pins which side of the fork each class takes.
func TestScannerClasses(t *testing.T) {
	for name, body := range fallbackBodies {
		if _, ok := scanBatchRequest([]byte(body)); ok {
			t.Errorf("%s: the scanner accepted %q", name, body)
		}
	}
	for name, body := range acceptedBodies {
		if _, ok := scanBatchRequest([]byte(body)); !ok {
			t.Errorf("%s: the scanner declined %q", name, body)
		}
	}
	if req, ok := scanBatchRequest(perfbenchBody()); !ok || len(req.Targets) != 1024 || *req.Source != 17 {
		t.Errorf("perfbench body: scanned %d targets", len(req.Targets))
	}
	resp := appendBatchResponse(nil, []int64{3, -1, 1<<63 - 1})
	if _, ok := scanBatchResponse(resp); !ok {
		t.Errorf("the response scanner declined WriteBatch's own %q", resp)
	}
}

// TestReadBodyFirstAllocation: a declared Content-Length buys at most
// firstRead bytes before any arrive; the buffer grows as they do.
func TestReadBodyFirstAllocation(t *testing.T) {
	l := Limits{MaxBatch: 1024, MaxBody: 1 << 20}
	for _, n := range []int{2, firstRead + 5000} {
		r := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(strings.Repeat(" ", n)))
		r.ContentLength = l.MaxBody
		b, err := l.readBody(r)
		if err != nil || len(b) != n {
			t.Fatalf("read %d of %d bytes, err %v", len(b), n, err)
		}
		if n < firstRead && cap(b) != firstRead+1 {
			t.Errorf("first allocation %d bytes for a declared %d, want %d", cap(b), l.MaxBody, firstRead+1)
		}
	}
}

// TestDecodeBatchResponse checks the replica-answer scanner's accepts
// against json.Unmarshal, and that a declined answer reports
// json.Unmarshal's own error.
func TestDecodeBatchResponse(t *testing.T) {
	for _, body := range []string{
		"{\"count\":3,\"distances\":[1,-1,9223372036854775807]}\n",
		`{"distances":[-9223372036854775808],"count":1}`,
		`{"count":1,"distances":[1.5]}`,
		`{"count":1,"distances":[9223372036854775808]}`,
		`{"count":0,"distances":[]}`,
		`{"count":1,"distances":null}`,
		`{"count":1,"distances":[1]} trailing`,
		`{"count":1,"count":2,"distances":[1]}`,
		`{"count":1,"distances":[1],"extra":true}`,
		`{"count": 2, "distances": [1, 2]}`,
		`{"count":1,"distances":[1]}`,
		`not json`,
	} {
		got, gotErr := DecodeBatchResponse([]byte(body))
		var want BatchResponse
		wantErr := json.Unmarshal([]byte(body), &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %+v, %v; want %+v, %v", body, got, gotErr, want, wantErr)
		}
	}
}

// randomDistances returns n distances mixing small hop counts,
// Unreachable (-1) and the int64 extremes.
func randomDistances(r *rand.Rand, n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		switch r.Intn(8) {
		case 0:
			d[i] = -1
		case 1:
			d[i] = r.Int63() - r.Int63()
		case 2:
			d[i] = [...]int64{-1 << 63, 1<<63 - 1, 0}[r.Intn(3)]
		default:
			d[i] = int64(r.Intn(300))
		}
	}
	return d
}

// TestWriteBatchMatchesWriteJSON: the append-style /batch answer is
// byte for byte what WriteJSON writes for the BatchResponse, header
// and status included.
func TestWriteBatchMatchesWriteJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	inputs := [][]int64{nil, {}, {-1}, {0}}
	for i := 0; i < 200; i++ {
		inputs = append(inputs, randomDistances(r, r.Intn(2000)))
	}
	for _, d := range inputs {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		WriteBatch(got, d)
		WriteJSON(want, http.StatusOK, BatchResponse{Count: len(d), Distances: d})
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("WriteBatch(%v) = %d %v %q, want %d %v %q", d, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

// TestAppendJSONMatchesMarshal: the coordinator's chunk bodies are the
// bytes json.Marshal writes, for either form, both, or neither.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	id := func() int32 {
		if r.Intn(10) == 0 {
			return [...]int32{-1 << 31, 1<<31 - 1, -1, 0}[r.Intn(4)]
		}
		return r.Int31n(25000)
	}
	for i := 0; i < 300; i++ {
		var req BatchRequest
		if r.Intn(2) == 0 {
			src := id()
			req.Source = &src
		}
		for j, n := 0, r.Intn(3)*r.Intn(600); j < n; j++ {
			req.Targets = append(req.Targets, id())
		}
		for j, n := 0, r.Intn(3)*r.Intn(600); j < n; j++ {
			req.Pairs = append(req.Pairs, [2]int32{id(), id()})
		}
		if i%7 == 0 {
			req.Targets, req.Pairs = []int32{}, [][2]int32{}
		}
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got := req.AppendJSON([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSON(%+v) = %s, want %s", req, got[len("prefix"):], want)
		}
	}
}

// FuzzBatchFastPath feeds each input to both decoders: whenever the
// request scanner accepts, json.NewDecoder accepts too with an equal
// value, and whenever the response scanner accepts, json.Unmarshal
// does, with an equal value.
func FuzzBatchFastPath(f *testing.F) {
	f.Add(perfbenchBody())
	for _, body := range acceptedBodies {
		f.Add([]byte(body))
	}
	for _, body := range fallbackBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte("{\"count\":3,\"distances\":[1,-1,255]}\n"))
	f.Add([]byte(`{"distances": [0, 9223372036854775807], "count": 2}`))
	f.Add([]byte(`{"count":2,"distances":[0,-9223372036854775808]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := scanBatchRequest(body); ok {
			var want BatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: scanned %+v, encoding/json decodes %+v", body, got, want)
			}
		}
		if resp, ok := scanBatchResponse(body); ok {
			var want BatchResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("scanner accepted %q, json.Unmarshal rejects it: %v", body, err)
			}
			if !reflect.DeepEqual(resp, want) {
				t.Fatalf("%q: scanned %+v, json.Unmarshal decodes %+v", body, resp, want)
			}
		}
	})
}
