module par_gen(a, b, c, par);
  input a;
  input b;
  input c;
  output par;
  wire w0;
  wire w1;
  assign w0 = a ^ b;
  assign w1 = c ^ w0;
  assign par = w1;
endmodule
