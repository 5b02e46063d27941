package configtree

import (
	"strconv"
	"testing"
)

func benchTree() *Node {
	root := New("nginx.conf")
	http := root.Section("http")
	for i := 0; i < 50; i++ {
		s := http.Section("server")
		s.Add("listen", strconv.Itoa(8000+i))
		s.Add("server_name", "host"+strconv.Itoa(i)+".example.com")
		s.Add("ssl_protocols", "TLSv1.2")
		loc := s.Section("location")
		loc.Value = "/api"
		loc.Add("proxy_pass", "http://backend")
	}
	return root
}

func BenchmarkFindExact(b *testing.B) {
	root := benchTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nodes := root.Find("http/server/ssl_protocols"); len(nodes) != 50 {
			b.Fatal(len(nodes))
		}
	}
}

func BenchmarkFindIndexed(b *testing.B) {
	root := benchTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := root.Get("http/server[25]/listen"); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkFindDescendant(b *testing.B) {
	root := benchTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nodes := root.Find("**/proxy_pass"); len(nodes) != 50 {
			b.Fatal(len(nodes))
		}
	}
}

func BenchmarkAppendFindDescendant(b *testing.B) {
	root := benchTree()
	q := Compile("**/proxy_pass")
	buf := make([]*Node, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nodes := root.AppendFind(buf[:0], q); len(nodes) != 50 {
			b.Fatal(len(nodes))
		}
	}
}
