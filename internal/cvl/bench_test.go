package cvl

import "testing"

func BenchmarkParseRuleFile(b *testing.B) {
	content := []byte(listing2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRuleFile("r.yaml", content); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseComposite(b *testing.B) {
	src := `mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseComposite(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalComposite(b *testing.B) {
	expr, err := ParseComposite(`mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen`)
	if err != nil {
		b.Fatal(err)
	}
	res := mapResolver{
		rules:  map[string]bool{"sysctl/net.ipv4.ip_forward": true, "nginx/listen": true},
		values: map[string]string{"mysql/ssl-ca/mysqld": "/etc/mysql/cacert.pem"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := expr.Eval(res)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
