module par_check(a, b, c, d, ok);
  input a;
  input b;
  input c;
  input d;
  output ok;
  wire w0;
  wire w1;
  wire w2;
  wire w3;
  assign w0 = a ^ b;
  assign w1 = c ^ d;
  assign w2 = w0 ^ w1;
  assign w3 = ~w2;
  assign ok = w3;
endmodule
